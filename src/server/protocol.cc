#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

namespace graphalign {

namespace {

// Decoding bounds: a request that declares more than these is rejected
// before any proportional allocation happens. The frame cap already bounds
// the true byte count; these bound the *declared* counts so a 16-byte
// garbage frame cannot request a 4-billion-entry reserve.
constexpr uint32_t kMaxWireNodes = 8u << 20;    // 8M nodes.
constexpr uint64_t kMaxWireEdges = 32u << 20;   // 32M edges (256 MB decoded).
constexpr size_t kMaxMessageLen = 4096;

Status BadPayload(const std::string& what) {
  return Status::InvalidArgument("protocol: " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing.

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kComplete: return "COMPLETE";
    case FrameStatus::kIncomplete: return "INCOMPLETE";
    case FrameStatus::kBadMagic: return "BAD_MAGIC";
    case FrameStatus::kOversized: return "OVERSIZED";
    case FrameStatus::kEmpty: return "EMPTY";
  }
  return "UNKNOWN";
}

FrameStatus TryParseFrame(std::string_view buf, std::string* payload,
                          size_t* consumed) {
  if (buf.empty()) return FrameStatus::kIncomplete;
  // Validate the magic on whatever prefix is available, so garbage is
  // rejected after its first bytes instead of after kFrameHeaderBytes.
  const size_t magic_avail = std::min(buf.size(), sizeof(kFrameMagic));
  if (std::memcmp(buf.data(), kFrameMagic, magic_avail) != 0) {
    return FrameStatus::kBadMagic;
  }
  if (buf.size() < kFrameHeaderBytes) return FrameStatus::kIncomplete;
  uint32_t len = 0;
  std::memcpy(&len, buf.data() + sizeof(kFrameMagic), sizeof(len));
  if (len == 0) return FrameStatus::kEmpty;
  if (len > kMaxFramePayload) return FrameStatus::kOversized;
  if (buf.size() < kFrameHeaderBytes + len) return FrameStatus::kIncomplete;
  payload->assign(buf.data() + kFrameHeaderBytes, len);
  *consumed = kFrameHeaderBytes + len;
  return FrameStatus::kComplete;
}

std::string EncodeFrame(std::string_view payload) {
  GA_CHECK(!payload.empty() && payload.size() <= kMaxFramePayload);
  std::string frame(kFrameMagic, sizeof(kFrameMagic));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(payload);
  return frame;
}

Result<bool> ReadFrameFromFd(int fd, std::string* payload) {
  char header[kFrameHeaderBytes];
  size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = recv(fd, header + got, sizeof(header) - got, 0);
    if (n == 0) {
      if (got == 0) return false;  // Clean close between frames.
      return BadPayload("connection closed inside a frame header");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Status::Internal("recv() failed: " +
                              std::string(strerror(errno)));
    }
    got += static_cast<size_t>(n);
  }
  uint32_t len = 0;
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return BadPayload("bad frame magic");
  }
  std::memcpy(&len, header + sizeof(kFrameMagic), sizeof(len));
  if (len == 0) return BadPayload("zero-length frame");
  if (len > kMaxFramePayload) {
    return BadPayload("frame of " + std::to_string(len) +
                      " bytes exceeds the " +
                      std::to_string(kMaxFramePayload) + "-byte cap");
  }
  payload->resize(len);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = recv(fd, payload->data() + off, len - off, 0);
    if (n == 0) return BadPayload("connection closed inside a frame body");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Status::Internal("recv() failed: " +
                              std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Status WriteFrameToFd(int fd, std::string_view payload) {
  const std::string frame = EncodeFrame(payload);
  size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up must yield EPIPE, not kill the
    // daemon with SIGPIPE.
    const ssize_t n =
        send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("send() failed: " +
                              std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Field lists (common/wire.h): each layout below is stated exactly once and
// drives both its encoder and its decoder. The golden-byte tests in
// tests/protocol_fuzz_test.cc pin every one of them.

namespace {

bool IsEmpty(const WireGraph& g) {
  return g.num_nodes == 0 && g.edges.empty();
}

bool IsKnownResponseCode(ResponseCode code) {
  return std::strcmp(ResponseCodeName(code), "UNKNOWN") != 0;
}

std::string UnsupportedVersion(uint32_t version) {
  return "unsupported protocol version " + std::to_string(version);
}

template <class IO>
void Fields(IO& io, WireGraph& g) {
  io.U32Below(g.num_nodes, uint64_t{kMaxWireNodes} + 1);
  io.Seq64(g.edges, kMaxWireEdges, [&](Edge& e) {
    // Endpoint range is validated here so Graph::FromEdges sees sane ints;
    // semantic validation (self-loops, duplicates) stays with the graph.
    io.U32Below(e.u, g.num_nodes);
    io.U32Below(e.v, g.num_nodes);
  });
}

// A mapping: mapping[u] = node of g2, -1 unmatched.
template <class IO>
void Fields(IO& io, std::vector<int32_t>& mapping) {
  io.Seq32(mapping, kMaxWireNodes, [&](int32_t& v) { io.I32(v); });
}

// The align-request field block, shared by kAlign, kSubmitJob, and the
// durable job spec (EncodeAlignSpec): one layout, three carriers.
template <class IO>
void Fields(IO& io, AlignRequest& a) {
  io.Str(a.algo, kMaxNameLen);
  io.Str(a.assign, kMaxNameLen);
  io.U64(a.deadline_ms);
  io.U64(a.mem_limit_mb);
  io.Bool(a.no_cache);
  io.Bool(a.by_hash);
  io.U64(a.g1_hash);
  io.U64(a.g2_hash);
  Fields(io, a.g1);
  Fields(io, a.g2);
  // A by-hash align must not also carry inline graphs: the two sources
  // could disagree and the cache key would be ambiguous.
  io.Require(!a.by_hash || (IsEmpty(a.g1) && IsEmpty(a.g2)));
}

template <class IO>
void Fields(IO& io, BatchJob& j) {
  io.U32(j.g1);
  io.U32(j.g2);
  io.Str(j.algo, kMaxNameLen);
  io.Str(j.assign, kMaxNameLen);
  io.U64(j.deadline_ms);
  io.U64(j.mem_limit_mb);
  io.Bool(j.no_cache);
}

template <class IO>
void Fields(IO& io, AlignBatchRequest& b) {
  io.Label("malformed batch graph table");
  io.Seq32(b.graphs, kMaxBatchGraphs, [&](BatchGraphRef& g) {
    io.Label("malformed batch graph entry");
    io.Bool(g.by_hash, BoolRule::kZeroOrOne);
    io.U64(g.hash);
    Fields(io, g.inline_graph);
    // Mirror the kAlign rule: a hash reference must not also carry an
    // inline graph (the two could disagree).
    if (g.by_hash && !IsEmpty(g.inline_graph)) {
      io.Fail("batch graph entry has both hash and inline");
    }
  });
  io.Require(!b.graphs.empty());
  io.Label("malformed batch job list");
  io.Seq32(b.jobs, kMaxBatchJobs, [&](BatchJob& j) {
    io.Label("malformed batch job");
    Fields(io, j);
    if (j.g1 >= b.graphs.size() || j.g2 >= b.graphs.size()) {
      io.Fail("batch job references a graph out of range");
    }
  });
  io.Require(!b.jobs.empty());
}

// A request: version, type, client identity and transport tag, then the
// body its type carries.
template <class IO>
void Fields(IO& io, Request& m) {
  uint32_t version = kProtocolVersion;
  io.Label("request too short for version and type");
  io.U32(version);
  io.Enum(m.type);
  if (version != kProtocolVersion) io.Fail(UnsupportedVersion(version));
  io.Label("malformed client identity");
  io.Str(m.client, kMaxNameLen);
  io.Label("malformed transport tag");
  io.Enum(m.transport, Transport::kHttp);
  switch (m.type) {
    case RequestType::kPing:
    case RequestType::kCacheInfo:
    case RequestType::kShutdown:
    case RequestType::kServerStats:
      break;
    case RequestType::kAlign:
      io.Label("malformed align request");
      Fields(io, m.align);
      break;
    case RequestType::kSubmitJob:
      io.Label("malformed submit-job request");
      Fields(io, m.submit_job.align);
      io.Str(m.submit_job.idem_key, kMaxNameLen);
      break;
    case RequestType::kJobStatus:
    case RequestType::kJobResult:
    case RequestType::kCancelJob:
      io.Label("malformed job id request");
      io.U64(m.job_id.job_id);
      break;
    case RequestType::kEvaluate:
      io.Label("malformed evaluate request");
      Fields(io, m.evaluate.g1);
      Fields(io, m.evaluate.g2);
      Fields(io, m.evaluate.mapping);
      Fields(io, m.evaluate.truth);
      break;
    case RequestType::kStats:
      io.Label("malformed stats request");
      Fields(io, m.stats.g);
      break;
    case RequestType::kPutGraph:
      io.Label("malformed put-graph request");
      Fields(io, m.put_graph.g);
      break;
    case RequestType::kHasGraph:
      io.Label("malformed has-graph request");
      io.U64(m.has_graph.hash);
      break;
    case RequestType::kAlignBatch:
      Fields(io, m.align_batch);
      break;
    default:
      io.Fail("unknown request type " +
              std::to_string(static_cast<int>(m.type)));
  }
  io.Label("trailing bytes after request");
}

// A response: version and code, then the note and the encoded body. The
// version and code are checked once the whole payload has been read.
template <class IO>
void Fields(IO& io, Response& m) {
  uint32_t version = kProtocolVersion;
  io.U32(version);
  io.Enum(m.code);
  io.Bool(m.cache_hit);
  io.U64(m.elapsed_us);
  io.U64(m.retry_after_ms);
  io.Str(m.message, kMaxMessageLen);
  io.Str(m.body, kMaxFramePayload);
  io.End();
  if (version != kProtocolVersion) io.Fail(UnsupportedVersion(version));
  if (!IsKnownResponseCode(m.code)) {
    io.Fail("unknown response code " +
            std::to_string(static_cast<int>(m.code)));
  }
}

template <class IO>
void Fields(IO& io, AlignResult& m) {
  Fields(io, m.mapping);
  io.F64(m.mnc);
  io.F64(m.ec);
  io.F64(m.s3);
  io.F64(m.align_seconds);
  io.Bool(m.degraded);
  io.Str(m.degrade_reason, kMaxMessageLen);
}

template <class IO>
void Fields(IO& io, AlignBatchResult& m) {
  io.U32(m.graph_loads);
  io.Seq32(m.jobs, kMaxBatchJobs, [&](BatchJobOutcome& job) {
    io.Label("malformed align batch job outcome");
    io.Enum(job.code);
    io.Bool(job.cache_hit);
    io.Str(job.message, kMaxMessageLen);
    io.Str(job.body, kMaxFramePayload);
    io.Require(IsKnownResponseCode(job.code));
  });
  io.Label("malformed align batch result");
}

template <class IO>
void Fields(IO& io, EvaluateResult& m) {
  io.F64(m.mnc);
  io.F64(m.ec);
  io.F64(m.ics);
  io.F64(m.s3);
  io.Bool(m.has_accuracy);
  io.F64(m.accuracy);
}

template <class IO>
void Fields(IO& io, StatsResult& m) {
  io.I32(m.num_nodes);
  io.I64(m.num_edges);
  io.F64(m.avg_degree);
  io.I32(m.max_degree);
  io.I32(m.components);
  io.U64(m.content_hash);
}

template <class IO>
void Fields(IO& io, JobInfo& m) {
  io.U64(m.job_id);
  io.U32(m.state);
  io.Str(m.state_name, kMaxNameLen);
  io.U32(m.attempts);
  io.U32(m.max_attempts);
  io.U64(m.submitted_unix_ms);
  io.U64(m.updated_unix_ms);
  io.U32(m.terminal_code);
  io.Str(m.message, kMaxMessageLen);
  io.Bool(m.existing);
}

template <class IO>
void Fields(IO& io, CacheInfoResult& m) {
  io.U64(m.hits);
  io.U64(m.misses);
  io.U64(m.evictions);
  io.U64(m.entries);
  io.U64(m.bytes);
  io.U64(m.capacity_bytes);
}

template <class IO>
void Fields(IO& io, PutGraphResult& m) {
  io.U64(m.content_hash);
  io.Bool(m.already_present);
}

template <class IO>
void Fields(IO& io, HasGraphResult& m) {
  io.Bool(m.present);
}

template <class T>
std::string Encode(const T& m) {
  WireEncoder io;
  Fields(io, const_cast<T&>(m));  // The encoder only reads the message.
  return io.Take();
}

// Decodes all of `bytes`; `what` names any failure the layout does not
// label itself.
template <class T>
Result<T> Decode(std::string_view bytes, const char* what) {
  T m;
  WireDecoder io(bytes, what);
  Fields(io, m);
  io.End();
  if (!io.ok()) return BadPayload(io.error());
  return m;
}

}  // namespace

WireGraph ToWire(const Graph& g) {
  WireGraph wire;
  wire.num_nodes = g.num_nodes();
  wire.edges = g.Edges();
  return wire;
}

std::string EncodeRequest(const Request& request) { return Encode(request); }

Result<Request> DecodeRequest(std::string_view payload) {
  return Decode<Request>(payload, "malformed request");
}

// ---------------------------------------------------------------------------
// Responses.

const char* ResponseCodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return "OK";
    case ResponseCode::kError: return "ERROR";
    case ResponseCode::kBadRequest: return "BAD_REQUEST";
    case ResponseCode::kDnf: return "DNF";
    case ResponseCode::kCrash: return "CRASH";
    case ResponseCode::kOom: return "OOM";
    case ResponseCode::kBusy: return "BUSY";
    case ResponseCode::kNumerical: return "NUMERICAL";
    case ResponseCode::kShuttingDown: return "SHUTTING_DOWN";
    case ResponseCode::kShed: return "SHED";
    case ResponseCode::kQuarantined: return "QUARANTINED";
    case ResponseCode::kNoGraph: return "NO_GRAPH";
    case ResponseCode::kPartial: return "PARTIAL";
    case ResponseCode::kAccepted: return "ACCEPTED";
    case ResponseCode::kNoJob: return "NO_JOB";
    case ResponseCode::kConflict: return "CONFLICT";
  }
  return "UNKNOWN";
}

std::string EncodeResponse(const Response& response) {
  return Encode(response);
}

Result<Response> DecodeResponse(std::string_view payload) {
  return Decode<Response>(payload, "malformed response");
}

std::string EncodeAlignResult(const AlignResult& result) {
  return Encode(result);
}

Result<AlignResult> DecodeAlignResult(std::string_view body) {
  return Decode<AlignResult>(body, "malformed align result");
}

std::string EncodeAlignBatchResult(const AlignBatchResult& result) {
  return Encode(result);
}

Result<AlignBatchResult> DecodeAlignBatchResult(std::string_view body) {
  return Decode<AlignBatchResult>(body, "malformed align batch result");
}

std::string EncodeEvaluateResult(const EvaluateResult& result) {
  return Encode(result);
}

Result<EvaluateResult> DecodeEvaluateResult(std::string_view body) {
  return Decode<EvaluateResult>(body, "malformed evaluate result");
}

std::string EncodeStatsResult(const StatsResult& result) {
  return Encode(result);
}

Result<StatsResult> DecodeStatsResult(std::string_view body) {
  return Decode<StatsResult>(body, "malformed stats result");
}

std::string EncodeJobInfo(const JobInfo& info) { return Encode(info); }

Result<JobInfo> DecodeJobInfo(std::string_view body) {
  return Decode<JobInfo>(body, "malformed job info");
}

std::string EncodeAlignSpec(const AlignRequest& align) {
  return Encode(align);
}

Result<AlignRequest> DecodeAlignSpec(std::string_view spec) {
  return Decode<AlignRequest>(spec, "malformed align spec");
}

std::string EncodeServerStatsResult(const ServerStatsResult& result) {
  return Encode(result);
}

Result<ServerStatsResult> DecodeServerStatsResult(std::string_view body) {
  return Decode<ServerStatsResult>(body, "malformed server stats result");
}

std::string EncodeCacheInfoResult(const CacheInfoResult& result) {
  return Encode(result);
}

Result<CacheInfoResult> DecodeCacheInfoResult(std::string_view body) {
  return Decode<CacheInfoResult>(body, "malformed cache info result");
}

std::string EncodePutGraphResult(const PutGraphResult& result) {
  return Encode(result);
}

Result<PutGraphResult> DecodePutGraphResult(std::string_view body) {
  return Decode<PutGraphResult>(body, "malformed put-graph result");
}

std::string EncodeHasGraphResult(const HasGraphResult& result) {
  return Encode(result);
}

Result<HasGraphResult> DecodeHasGraphResult(std::string_view body) {
  return Decode<HasGraphResult>(body, "malformed has-graph result");
}

}  // namespace graphalign
