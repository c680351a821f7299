// Deterministic fuzz suite for the wire protocol (DESIGN.md §11, §14): the
// decoders are total functions, so every byte sequence — pure noise,
// truncated prefixes of valid messages, valid messages with flipped bytes —
// must map to a typed outcome without crashing, hanging, or reading out of
// bounds. The suite is seeded (SplitMix64) so every run covers the same
// inputs; tools/run_sanitize.sh re-runs this binary under AddressSanitizer,
// where a silent overread becomes a hard failure.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/record_log.h"
#include "common/status.h"
#include "gateway/http.h"
#include "gateway/json.h"
#include "graph/graph.h"
#include "jobs/manager.h"
#include "server/protocol.h"
#include "store/gst.h"

namespace graphalign {
namespace {

// SplitMix64: tiny, seedable, and good enough to cover the byte space. Kept
// local so the fuzz corpus never shifts underneath a changed shared RNG.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

  std::string Bytes(size_t n) {
    std::string out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>(Next() & 0xff));
    }
    return out;
  }

 private:
  uint64_t state_;
};

// Exercises every decoder that can see attacker bytes on `payload`. The only
// assertion is "no crash / no hang / no overread": each call must return,
// and ASan enforces the memory-safety half.
void DrainDecoders(std::string_view payload) {
  { Result<Request> r = DecodeRequest(payload); (void)r; }
  { Result<Response> r = DecodeResponse(payload); (void)r; }
  { Result<AlignResult> r = DecodeAlignResult(payload); (void)r; }
  { Result<EvaluateResult> r = DecodeEvaluateResult(payload); (void)r; }
  { Result<StatsResult> r = DecodeStatsResult(payload); (void)r; }
  { Result<CacheInfoResult> r = DecodeCacheInfoResult(payload); (void)r; }
  { Result<ServerStatsResult> r = DecodeServerStatsResult(payload); (void)r; }
  { Result<PutGraphResult> r = DecodePutGraphResult(payload); (void)r; }
  { Result<HasGraphResult> r = DecodeHasGraphResult(payload); (void)r; }
  { Result<AlignBatchResult> r = DecodeAlignBatchResult(payload); (void)r; }
}

// The GST1 opener sees whatever bytes survived the disk; like the wire
// decoders it must be a total function. Callers hand it 8-aligned mmapped
// buffers, so fuzz inputs are copied into an aligned allocation first.
Result<Graph> OpenGstAlignedCopy(std::string_view bytes) {
  const size_t words = bytes.size() / 8 + 1;
  auto aligned = std::make_shared<std::vector<uint64_t>>(words);
  std::memcpy(aligned->data(), bytes.data(), bytes.size());
  const std::string_view view(
      reinterpret_cast<const char*>(aligned->data()), bytes.size());
  GstInfo info;
  return OpenGstBytes(view, aligned, &info);
}

void DrainGstOpener(std::string_view bytes) {
  Result<Graph> r = OpenGstAlignedCopy(bytes);
  if (r.ok()) {
    // Anything that opens must be internally coherent enough to walk.
    EXPECT_GE(r->num_nodes(), 0);
    EXPECT_GE(r->num_edges(), 0);
  } else {
    // Only the typed verification/availability codes may come back — an
    // unknown code would mean some error path bypassed classification.
    const StatusCode code = r.status().code();
    EXPECT_TRUE(code == StatusCode::kCorrupt ||
                code == StatusCode::kUnavailable)
        << r.status().message();
  }
}

WireGraph SmallWireGraph(SplitMix64* rng, int num_nodes, int num_edges) {
  WireGraph g;
  g.num_nodes = num_nodes;
  for (int i = 0; i < num_edges; ++i) {
    int u = static_cast<int>(rng->Below(static_cast<uint64_t>(num_nodes)));
    int v = static_cast<int>(rng->Below(static_cast<uint64_t>(num_nodes)));
    if (u == v) v = (v + 1) % num_nodes;
    g.edges.push_back(Edge{u < v ? u : v, u < v ? v : u});
  }
  return g;
}

// A small deterministic graph whose GST1 encoding seeds the mutation tests.
std::string SeedGstBytes(SplitMix64* rng, int num_nodes, int num_edges) {
  WireGraph wg = SmallWireGraph(rng, num_nodes, num_edges);
  Result<Graph> g = Graph::FromEdges(wg.num_nodes, wg.edges);
  EXPECT_TRUE(g.ok()) << g.status().message();
  return EncodeGst(*g);
}

// A corpus of well-formed encoded payloads: one request per RequestType and
// one response per shape of body. Mutations start from these so the fuzz
// reaches deep decoder paths (graph loops, string reads, vector counts)
// instead of dying at the type byte.
std::vector<std::string> SeedCorpus(SplitMix64* rng) {
  std::vector<std::string> corpus;

  Request ping;
  ping.type = RequestType::kPing;
  ping.client = "fuzz";
  corpus.push_back(EncodeRequest(ping));

  Request align;
  align.type = RequestType::kAlign;
  align.client = "fuzz-align";
  align.align.algo = "NSD";
  align.align.assign = "JV";
  align.align.deadline_ms = 1500;
  align.align.mem_limit_mb = 256;
  align.align.g1 = SmallWireGraph(rng, 12, 20);
  align.align.g2 = SmallWireGraph(rng, 12, 20);
  corpus.push_back(EncodeRequest(align));

  Request evaluate;
  evaluate.type = RequestType::kEvaluate;
  evaluate.evaluate.g1 = SmallWireGraph(rng, 8, 10);
  evaluate.evaluate.g2 = SmallWireGraph(rng, 8, 10);
  evaluate.evaluate.mapping = {0, 1, 2, 3, 4, 5, 6, 7};
  evaluate.evaluate.truth = {0, 1, 2, 3, -1, -1, 6, 7};
  corpus.push_back(EncodeRequest(evaluate));

  Request stats;
  stats.type = RequestType::kStats;
  stats.stats.g = SmallWireGraph(rng, 10, 15);
  corpus.push_back(EncodeRequest(stats));

  for (RequestType t : {RequestType::kCacheInfo, RequestType::kShutdown,
                        RequestType::kServerStats}) {
    Request r;
    r.type = t;
    r.client = "fuzz";
    corpus.push_back(EncodeRequest(r));
  }

  Request put;
  put.type = RequestType::kPutGraph;
  put.client = "fuzz-put";
  put.put_graph.g = SmallWireGraph(rng, 9, 14);
  corpus.push_back(EncodeRequest(put));

  Request has;
  has.type = RequestType::kHasGraph;
  has.client = "fuzz-has";
  has.has_graph.hash = 0x0123456789abcdefull;
  corpus.push_back(EncodeRequest(has));

  // Submit-by-hash: an align frame that names graphs instead of carrying
  // them. Mutations of this seed cover the hash fields and the by-hash flag.
  Request by_hash;
  by_hash.type = RequestType::kAlign;
  by_hash.client = "fuzz-by-hash";
  by_hash.align.algo = "GRASP";
  by_hash.align.assign = "JV";
  by_hash.align.by_hash = true;
  by_hash.align.g1_hash = 0x1111222233334444ull;
  by_hash.align.g2_hash = 0x5555666677778888ull;
  corpus.push_back(EncodeRequest(by_hash));

  // A batch: two graph-table entries (one by hash, one inline), three jobs.
  // Mutations of this seed cover the table/job counts, the per-job index
  // validation, and the by-hash exclusivity check.
  Request batch;
  batch.type = RequestType::kAlignBatch;
  batch.client = "fuzz-batch";
  BatchGraphRef by_hash_ref;
  by_hash_ref.by_hash = true;
  by_hash_ref.hash = 0x99aabbccddeeff00ull;
  batch.align_batch.graphs.push_back(by_hash_ref);
  BatchGraphRef inline_ref;
  inline_ref.inline_graph = SmallWireGraph(rng, 7, 10);
  batch.align_batch.graphs.push_back(inline_ref);
  for (int j = 0; j < 3; ++j) {
    BatchJob job;
    job.g1 = static_cast<uint32_t>(j % 2);
    job.g2 = static_cast<uint32_t>((j + 1) % 2);
    job.algo = j == 0 ? "NSD" : "LREA";
    job.deadline_ms = 100 * static_cast<uint64_t>(j);
    job.no_cache = (j == 2);
    batch.align_batch.jobs.push_back(job);
  }
  corpus.push_back(EncodeRequest(batch));

  Response ok;
  ok.code = ResponseCode::kOk;
  ok.cache_hit = true;
  ok.elapsed_us = 1234;
  AlignResult align_body;
  align_body.mapping = {3, 1, 0, 2};
  align_body.mnc = 0.5;
  align_body.ec = 0.25;
  align_body.s3 = 0.125;
  align_body.align_seconds = 0.01;
  align_body.degraded = true;
  align_body.degrade_reason = "eigen fallback";
  ok.body = EncodeAlignResult(align_body);
  corpus.push_back(EncodeResponse(ok));

  Response err;
  err.code = ResponseCode::kQuarantined;
  err.message = "request signature quarantined";
  corpus.push_back(EncodeResponse(err));

  EvaluateResult eval_body;
  eval_body.mnc = 0.75;
  eval_body.has_accuracy = true;
  eval_body.accuracy = 0.9;
  corpus.push_back(EncodeEvaluateResult(eval_body));

  StatsResult stats_body;
  stats_body.num_nodes = 60;
  stats_body.num_edges = 171;
  stats_body.content_hash = 0xdeadbeefcafef00dull;
  corpus.push_back(EncodeStatsResult(stats_body));

  CacheInfoResult cache_body;
  cache_body.hits = 10;
  cache_body.entries = 3;
  cache_body.capacity_bytes = 1u << 20;
  corpus.push_back(EncodeCacheInfoResult(cache_body));

  ServerStatsResult server_body;
  server_body.workers = 4;
  server_body.uptime_seconds = 12.5;
  server_body.accepted = 100;
  server_body.quarantined_signatures = 2;
  server_body.worker_restarts = {0, 1, 0, 3};
  corpus.push_back(EncodeServerStatsResult(server_body));

  PutGraphResult put_body;
  put_body.content_hash = 0x27f1f48ddd44eec1ull;
  put_body.already_present = true;
  corpus.push_back(EncodePutGraphResult(put_body));

  HasGraphResult has_body;
  has_body.present = true;
  corpus.push_back(EncodeHasGraphResult(has_body));

  // A partial batch result: one OK job carrying a nested AlignResult body,
  // one failed job. Flips reach the nested-body length and the per-job
  // code validation.
  AlignBatchResult batch_body;
  batch_body.graph_loads = 2;
  BatchJobOutcome job_ok;
  job_ok.code = ResponseCode::kOk;
  job_ok.cache_hit = true;
  AlignResult nested;
  nested.mapping = {2, 0, 1};
  nested.mnc = 0.5;
  job_ok.body = EncodeAlignResult(nested);
  batch_body.jobs.push_back(job_ok);
  BatchJobOutcome job_bad;
  job_bad.code = ResponseCode::kDnf;
  job_bad.message = "deadline exceeded in child";
  batch_body.jobs.push_back(job_bad);
  corpus.push_back(EncodeAlignBatchResult(batch_body));

  return corpus;
}

TEST(ProtocolFuzzTest, RandomBlobsNeverCrashTheFrameParser) {
  SplitMix64 rng(0x6761665f66757a31ull);  // "gaf_fuz1"
  for (int iter = 0; iter < 4000; ++iter) {
    std::string blob = rng.Bytes(rng.Below(96));
    // A random prefix sometimes gets the real magic so length validation is
    // reached, not just the magic check.
    if (blob.size() >= 4 && rng.Below(2) == 0) {
      std::memcpy(blob.data(), kFrameMagic, sizeof(kFrameMagic));
    }
    std::string payload;
    size_t consumed = 0;
    FrameStatus status = TryParseFrame(blob, &payload, &consumed);
    switch (status) {
      case FrameStatus::kComplete:
        EXPECT_LE(consumed, blob.size());
        EXPECT_LE(payload.size(), kMaxFramePayload);
        break;
      case FrameStatus::kIncomplete:
      case FrameStatus::kBadMagic:
      case FrameStatus::kOversized:
      case FrameStatus::kEmpty:
        break;
      default:
        FAIL() << "untyped frame status " << static_cast<int>(status);
    }
  }
}

TEST(ProtocolFuzzTest, RandomBlobsNeverCrashTheDecoders) {
  SplitMix64 rng(0x6761665f66757a32ull);
  for (int iter = 0; iter < 2000; ++iter) {
    DrainDecoders(rng.Bytes(rng.Below(160)));
  }
  // Empty and single-byte payloads are the classic off-by-one edges.
  DrainDecoders("");
  for (int b = 0; b < 256; ++b) {
    char c = static_cast<char>(b);
    DrainDecoders(std::string_view(&c, 1));
  }
}

TEST(ProtocolFuzzTest, EveryTruncationOfEveryValidMessageIsTyped) {
  SplitMix64 rng(0x6761665f66757a33ull);
  for (const std::string& msg : SeedCorpus(&rng)) {
    for (size_t len = 0; len < msg.size(); ++len) {
      DrainDecoders(std::string_view(msg.data(), len));
      // Framed truncations: the stream reader's view of a torn message.
      std::string framed = EncodeFrame(msg).substr(0, kFrameHeaderBytes + len);
      std::string payload;
      size_t consumed = 0;
      EXPECT_EQ(TryParseFrame(framed, &payload, &consumed),
                FrameStatus::kIncomplete);
    }
  }
}

TEST(ProtocolFuzzTest, ByteFlipsOnValidMessagesAreTyped) {
  SplitMix64 rng(0x6761665f66757a34ull);
  for (const std::string& msg : SeedCorpus(&rng)) {
    // Single flip at every offset: cheap and covers the length/count fields
    // a random fuzz would rarely hit with exactly-wrong values.
    for (size_t pos = 0; pos < msg.size(); ++pos) {
      std::string mutated = msg;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Below(8)));
      DrainDecoders(mutated);
    }
    // Multi-byte stomps: overwrite a random window with random bytes.
    for (int iter = 0; iter < 200; ++iter) {
      std::string mutated = msg;
      size_t pos = rng.Below(mutated.size());
      size_t n = 1 + rng.Below(8);
      for (size_t i = 0; i < n && pos + i < mutated.size(); ++i) {
        mutated[pos + i] = static_cast<char>(rng.Next() & 0xff);
      }
      DrainDecoders(mutated);
    }
  }
}

TEST(ProtocolFuzzTest, HostileLengthPrefixesDoNotBlowUpAllocation) {
  // A four-byte count field stomped to 0xffffffff must fail the bounds
  // check, not reserve 4 G entries. Build payloads that are valid up to a
  // huge trailing count.
  SplitMix64 rng(0x6761665f66757a35ull);
  for (const std::string& msg : SeedCorpus(&rng)) {
    for (int iter = 0; iter < 64; ++iter) {
      std::string mutated = msg;
      if (mutated.size() < 4) continue;
      size_t pos = rng.Below(mutated.size() - 3);
      uint32_t huge = 0xfffffff0u + static_cast<uint32_t>(rng.Below(16));
      std::memcpy(mutated.data() + pos, &huge, sizeof(huge));
      DrainDecoders(mutated);
    }
  }
}

TEST(ProtocolFuzzTest, ValidCorpusStillRoundTrips) {
  // Guard against the fuzz passing because the decoders reject everything:
  // the untouched corpus must decode cleanly as the type that produced it.
  SplitMix64 rng(0x6761665f66757a36ull);
  std::vector<std::string> corpus = SeedCorpus(&rng);
  int request_ok = 0;
  int response_ok = 0;
  for (const std::string& msg : corpus) {
    if (DecodeRequest(msg).ok()) ++request_ok;
    if (DecodeResponse(msg).ok()) ++response_ok;
  }
  // One per RequestType, plus the by-hash align and the batch.
  EXPECT_GE(request_ok, 11);
  EXPECT_GE(response_ok, 2);  // The kOk and kQuarantined seeds.

  Request align;
  align.type = RequestType::kAlign;
  align.client = "roundtrip";
  align.align.algo = "GRASP";
  align.align.g1 = SmallWireGraph(&rng, 6, 8);
  align.align.g2 = SmallWireGraph(&rng, 6, 8);
  Result<Request> decoded = DecodeRequest(EncodeRequest(align));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->type, RequestType::kAlign);
  EXPECT_EQ(decoded->client, "roundtrip");
  EXPECT_EQ(decoded->align.algo, "GRASP");
  EXPECT_EQ(decoded->align.g1.edges.size(), align.align.g1.edges.size());
}

// --- Golden bytes ----------------------------------------------------------
// The GAF1 payloads, the GAR1 cache-log values (encoded AlignResults) and
// the GAJ1 journal events are durable contracts: an old log or an old peer
// must keep decoding. A round trip cannot see a field that moved in both
// the encoder and the decoder at once, so each layout is pinned here by the
// exact bytes of one fully populated instance. Each case checks that the
// instance encodes to exactly those bytes, that they decode back to it, and
// that every strict prefix and the bytes plus one extra byte are rejected.

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 15]);
  }
  return hex;
}

// `decode` returns the re-encoding of what it decoded, or nullopt when the
// bytes are rejected. Comparing re-encodings compares every wire field.
void ExpectGolden(
    const std::string& name, const std::string& encoded,
    const std::string& golden_hex,
    const std::function<std::optional<std::string>(std::string_view)>& decode) {
  SCOPED_TRACE(name);
  EXPECT_EQ(ToHex(encoded), golden_hex);
  const std::optional<std::string> again = decode(encoded);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(ToHex(*again), golden_hex);
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(decode(std::string_view(encoded.data(), len)).has_value())
        << "prefix of " << len << " bytes was accepted";
  }
  EXPECT_FALSE(decode(encoded + '\x07').has_value())
      << "one trailing byte was accepted";
}

template <class T>
void ExpectGoldenCodec(const std::string& name, const T& msg,
                       std::string (*encode)(const T&),
                       Result<T> (*decode)(std::string_view),
                       const std::string& golden_hex) {
  ExpectGolden(name, encode(msg), golden_hex,
               [&](std::string_view bytes) -> std::optional<std::string> {
                 Result<T> decoded = decode(bytes);
                 if (!decoded.ok()) return std::nullopt;
                 return encode(*decoded);
               });
}

WireGraph GoldenGraph(int n) {
  WireGraph g;
  g.num_nodes = n;
  g.edges = {{0, 1}, {1, n - 1}};
  return g;
}

AlignRequest GoldenAlign() {
  AlignRequest a;
  a.algo = "GRASP";
  a.assign = "MWM";
  a.deadline_ms = 1500;
  a.mem_limit_mb = 512;
  a.no_cache = true;
  a.g1 = GoldenGraph(3);
  a.g2 = GoldenGraph(4);
  return a;
}

AlignResult GoldenAlignResult() {
  AlignResult r;
  r.mapping = {2, -1, 0};
  r.mnc = 0.5;
  r.ec = 0.25;
  r.s3 = 0.125;
  r.align_seconds = 1.5;
  r.degraded = true;
  r.degrade_reason = "lanczos";
  return r;
}

TEST(ProtocolGoldenTest, RequestsOfEveryType) {
  struct Case {
    RequestType type;
    const char* hex;
  };
  const Case cases[] = {
      {RequestType::kPing, "050000000103000000636c6901"},
      {RequestType::kAlign,
          "050000000203000000636c6901050000004752415350030000004d574ddc0500"
          "0000000000000200000000000001000000000000000000000000000000000003"
          "0000000200000000000000000000000100000001000000020000000400000002"
          "0000000000000000000000010000000100000003000000"},
      {RequestType::kEvaluate,
          "050000000303000000636c690103000000020000000000000000000000010000"
          "0001000000020000000300000002000000000000000000000001000000010000"
          "0002000000030000000100000000000000ffffffff0300000001000000000000"
          "0002000000"},
      {RequestType::kStats,
          "050000000403000000636c690105000000020000000000000000000000010000"
          "000100000004000000"},
      {RequestType::kCacheInfo, "050000000503000000636c6901"},
      {RequestType::kShutdown, "050000000603000000636c6901"},
      {RequestType::kServerStats, "050000000703000000636c6901"},
      {RequestType::kPutGraph,
          "050000000803000000636c690102000000020000000000000000000000010000"
          "000100000001000000"},
      {RequestType::kHasGraph, "050000000903000000636c6901efcdab8967452301"},
      {RequestType::kAlignBatch,
          "050000000a03000000636c690102000000018877665544332211000000000000"
          "0000000000000000000000000000000300000002000000000000000000000001"
          "0000000100000002000000010000000000000001000000030000004e53440200"
          "00005347fa00000000000000400000000000000001"},
      {RequestType::kSubmitJob,
          "050000000b03000000636c6901050000004752415350030000004d574ddc0500"
          "000000000000020000000000000101a8a7a6a5a4a3a2a1b8b7b6b5b4b3b2b100"
          "0000000000000000000000000000000000000000000000050000006b65792d31"},
      {RequestType::kJobStatus, "050000000c03000000636c69011032547698badcfe"},
      {RequestType::kJobResult, "050000000d03000000636c69011032547698badcfe"},
      {RequestType::kCancelJob, "050000000e03000000636c69011032547698badcfe"},
  };
  for (const Case& c : cases) {
    Request r;
    r.type = c.type;
    r.client = "cli";
    r.transport = Transport::kHttp;
    switch (c.type) {
      case RequestType::kAlign:
        r.align = GoldenAlign();
        break;
      case RequestType::kEvaluate:
        r.evaluate.g1 = GoldenGraph(3);
        r.evaluate.g2 = GoldenGraph(3);
        r.evaluate.mapping = {1, 0, -1};
        r.evaluate.truth = {1, 0, 2};
        break;
      case RequestType::kStats:
        r.stats.g = GoldenGraph(5);
        break;
      case RequestType::kPutGraph:
        r.put_graph.g = GoldenGraph(2);
        break;
      case RequestType::kHasGraph:
        r.has_graph.hash = 0x0123456789abcdefull;
        break;
      case RequestType::kAlignBatch: {
        BatchGraphRef by_hash;
        by_hash.by_hash = true;
        by_hash.hash = 0x1122334455667788ull;
        BatchGraphRef inline_graph;
        inline_graph.inline_graph = GoldenGraph(3);
        r.align_batch.graphs = {by_hash, inline_graph};
        BatchJob job;
        job.g1 = 0;
        job.g2 = 1;
        job.algo = "NSD";
        job.assign = "SG";
        job.deadline_ms = 250;
        job.mem_limit_mb = 64;
        job.no_cache = true;
        r.align_batch.jobs = {job};
        break;
      }
      case RequestType::kSubmitJob:
        r.submit_job.align = GoldenAlign();
        r.submit_job.align.by_hash = true;
        r.submit_job.align.g1_hash = 0xa1a2a3a4a5a6a7a8ull;
        r.submit_job.align.g2_hash = 0xb1b2b3b4b5b6b7b8ull;
        r.submit_job.align.g1 = WireGraph();
        r.submit_job.align.g2 = WireGraph();
        r.submit_job.idem_key = "key-1";
        break;
      case RequestType::kJobStatus:
      case RequestType::kJobResult:
      case RequestType::kCancelJob:
        r.job_id.job_id = 0xfedcba9876543210ull;
        break;
      default:
        break;
    }
    ExpectGoldenCodec(
        "request type " + std::to_string(static_cast<int>(c.type)), r,
        EncodeRequest, DecodeRequest, c.hex);
  }
}

TEST(ProtocolGoldenTest, ResponseAndAlignSpec) {
  Response response;
  response.code = ResponseCode::kShed;
  response.cache_hit = true;
  response.elapsed_us = 123456;
  response.retry_after_ms = 250;
  response.message = "queue wait";
  response.body = "body";
  ExpectGoldenCodec("response", response, EncodeResponse, DecodeResponse,
          "05000000090140e2010000000000fa000000000000000a000000717565756520"
          "7761697404000000626f6479");

  ExpectGoldenCodec("align spec", GoldenAlign(), EncodeAlignSpec,
                    DecodeAlignSpec,
          "050000004752415350030000004d574ddc050000000000000002000000000000"
          "0100000000000000000000000000000000000300000002000000000000000000"
          "0000010000000100000002000000040000000200000000000000000000000100"
          "00000100000003000000");
}

TEST(ProtocolGoldenTest, ResultBodies) {
  ExpectGoldenCodec("align result", GoldenAlignResult(), EncodeAlignResult,
                    DecodeAlignResult,
          "0300000002000000ffffffff00000000000000000000e03f000000000000d03f"
          "000000000000c03f000000000000f83f01070000006c616e637a6f73");

  AlignBatchResult batch;
  batch.graph_loads = 2;
  BatchJobOutcome ok;
  ok.code = ResponseCode::kOk;
  ok.cache_hit = true;
  ok.body = EncodeAlignResult(GoldenAlignResult());
  BatchJobOutcome dnf;
  dnf.code = ResponseCode::kDnf;
  dnf.message = "deadline";
  batch.jobs = {ok, dnf};
  ExpectGoldenCodec("align batch result", batch, EncodeAlignBatchResult,
                    DecodeAlignBatchResult,
          "02000000020000000001000000003c0000000300000002000000ffffffff0000"
          "0000000000000000e03f000000000000d03f000000000000c03f000000000000"
          "f83f01070000006c616e637a6f73030008000000646561646c696e6500000000");

  EvaluateResult eval;
  eval.mnc = 0.5;
  eval.ec = 0.25;
  eval.ics = 0.75;
  eval.s3 = 0.125;
  eval.has_accuracy = true;
  eval.accuracy = 0.875;
  ExpectGoldenCodec("evaluate result", eval, EncodeEvaluateResult,
                    DecodeEvaluateResult,
          "000000000000e03f000000000000d03f000000000000e83f000000000000c03f"
          "01000000000000ec3f");

  StatsResult stats;
  stats.num_nodes = 60;
  stats.num_edges = 171;
  stats.avg_degree = 5.7;
  stats.max_degree = 12;
  stats.components = 2;
  stats.content_hash = 0xdeadbeefcafef00dull;
  ExpectGoldenCodec("stats result", stats, EncodeStatsResult,
                    DecodeStatsResult,
          "3c000000ab00000000000000cdcccccccccc16400c000000020000000df0feca"
          "efbeadde");

  PutGraphResult put;
  put.content_hash = 0x27f1f48ddd44eec1ull;
  put.already_present = true;
  ExpectGoldenCodec("put-graph result", put, EncodePutGraphResult,
                    DecodePutGraphResult, "c1ee44dd8df4f12701");

  HasGraphResult has;
  has.present = true;
  ExpectGoldenCodec("has-graph result", has, EncodeHasGraphResult,
                    DecodeHasGraphResult, "01");

  JobInfo info;
  info.job_id = 0x0102030405060708ull;
  info.state = 3;
  info.state_name = "FAILED";
  info.attempts = 2;
  info.max_attempts = 3;
  info.submitted_unix_ms = 1000;
  info.updated_unix_ms = 2000;
  info.terminal_code = 4;
  info.message = "crashed";
  info.existing = true;
  ExpectGoldenCodec("job info", info, EncodeJobInfo, DecodeJobInfo,
          "080706050403020103000000060000004641494c45440200000003000000e803"
          "000000000000d00700000000000004000000070000006372617368656401");

  CacheInfoResult cache;
  cache.hits = 1;
  cache.misses = 2;
  cache.evictions = 3;
  cache.entries = 4;
  cache.bytes = 5;
  cache.capacity_bytes = 6;
  ExpectGoldenCodec("cache info result", cache, EncodeCacheInfoResult,
                    DecodeCacheInfoResult,
          "0100000000000000020000000000000003000000000000000400000000000000"
          "05000000000000000600000000000000");

  // Every counter gets a distinct value, so a swapped pair shows.
  ServerStatsResult server;
  uint64_t next = 1;
  for (uint64_t* field :
       {&server.workers, &server.accepted, &server.served,
        &server.busy_rejected, &server.quota_rejected, &server.shed,
        &server.quarantined, &server.quarantined_signatures,
        &server.watchdog_kills, &server.queue_depth, &server.in_flight,
        &server.cache_replayed, &server.cache_crc_skipped,
        &server.cache_truncated_bytes, &server.cache_append_errors,
        &server.cache_open_errors, &server.store_puts, &server.store_gets,
        &server.store_corrupt, &server.store_missing,
        &server.store_unavailable, &server.served_http,
        &server.quota_rejected_http, &server.shed_http, &server.batches,
        &server.batch_jobs, &server.batch_cache_hits,
        &server.batch_graph_loads, &server.jobs_submitted,
        &server.jobs_deduped, &server.jobs_done, &server.jobs_failed,
        &server.jobs_cancelled, &server.jobs_executions,
        &server.jobs_recovered, &server.jobs_pending}) {
    *field = next++;
  }
  server.uptime_seconds = 12.5;
  server.worker_restarts = {0, 7};
  ExpectGoldenCodec("server stats result", server, EncodeServerStatsResult,
                    DecodeServerStatsResult,
          "0100000000000000000000000000294002000000000000000300000000000000"
          "0400000000000000050000000000000006000000000000000700000000000000"
          "080000000000000009000000000000000a000000000000000b00000000000000"
          "0c000000000000000d000000000000000e000000000000000f00000000000000"
          "1000000000000000110000000000000012000000000000001300000000000000"
          "1400000000000000150000000000000016000000000000001700000000000000"
          "180000000000000019000000000000001a000000000000001b00000000000000"
          "1c000000000000001d000000000000001e000000000000001f00000000000000"
          "2000000000000000210000000000000022000000000000002300000000000000"
          "24000000000000000200000000000000000000000700000000000000");
}

// --- GAJ1 journal events ---------------------------------------------------
// The event codec is private to the job manager, so these cases go through
// its public surface: the manager writes the events for a known history,
// and a journal holding the golden bytes is replayed by a fresh manager.

class JournalGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_goldenXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  JobManagerOptions Options() const {
    JobManagerOptions options;
    options.dir = dir_;
    options.max_attempts = 3;
    return options;
  }

  // Replaces the journal with exactly `events` and opens a manager on it.
  std::unique_ptr<JobManager> Replay(const std::vector<std::string>& events) {
    std::remove((dir_ + "/jobs.journal").c_str());
    {
      auto journal = RecordLog::Open(dir_, kJobJournalFormat,
                                     [](std::string_view) {});
      GA_CHECK(journal.ok());
      for (const std::string& e : events) GA_CHECK((*journal)->Append(e).ok());
      GA_CHECK((*journal)->Sync().ok());
    }
    auto manager = JobManager::Open(Options(), 5000);
    GA_CHECK(manager.ok());
    return *std::move(manager);
  }

  std::vector<std::string> JournalEvents() {
    std::vector<std::string> events;
    auto journal = RecordLog::Open(
        dir_, kJobJournalFormat,
        [&events](std::string_view p) { events.emplace_back(p); });
    GA_CHECK(journal.ok());
    return events;
  }

  std::string dir_;
};

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST_F(JournalGoldenTest, SubmitAndStateEvents) {
  const std::string done_spec = "spec:done";
  const std::string failed_spec = "spec:failed";
  {
    auto opened = JobManager::Open(Options(), 1000);
    ASSERT_TRUE(opened.ok());
    JobManager& mgr = **opened;
    ASSERT_TRUE(mgr.Submit("idem-1", done_spec, 1000).ok());
    JobRecord claimed;
    ASSERT_TRUE(mgr.ClaimNext(&claimed, nullptr));
    ASSERT_TRUE(mgr.CompleteDone(claimed.job_id, "result-bytes", 2000).ok());
    ASSERT_TRUE(mgr.Submit("", failed_spec, 3000).ok());
    ASSERT_TRUE(mgr.ClaimNext(&claimed, nullptr));
    ASSERT_TRUE(
        mgr.CompleteFailed(claimed.job_id, 4, "crashed", false, 4000).ok());
  }
  // Submit, claim, done; submit, claim, failed. The claims carry wall-clock
  // timestamps, so they are not pinned.
  const std::vector<std::string> events = JournalEvents();
  ASSERT_EQ(events.size(), 6u);
  const std::string submit_hex =
     
          "00eceffec0aef4c3bb060000006964656d2d3109000000737065633a646f6e65"
          "e80300000000000003000000";
  const std::string done_hex =
     
          "01eceffec0aef4c3bb0200000001000000d00700000000000000000000000000"
          "000c000000726573756c742d6279746573";
  const std::string failed_submit_hex =
     
          "0081ed2efef518f3bf000000000b000000737065633a6661696c6564b80b0000"
          "0000000003000000";
  const std::string failed_hex =
     
          "0181ed2efef518f3bf0300000001000000a00f00000000000004000000070000"
          "006372617368656400000000";
  EXPECT_EQ(ToHex(events[0]), submit_hex);
  EXPECT_EQ(ToHex(events[2]), done_hex);
  EXPECT_EQ(ToHex(events[3]), failed_submit_hex);
  EXPECT_EQ(ToHex(events[5]), failed_hex);

  const uint64_t done_id = JobContentId(done_spec);
  const uint64_t failed_id = JobContentId(failed_spec);
  {
    auto mgr = Replay({FromHex(submit_hex), FromHex(done_hex),
                       FromHex(failed_submit_hex), FromHex(failed_hex)});
    Result<JobRecord> done = mgr->Get(done_id);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->idem_key, "idem-1");
    EXPECT_EQ(done->spec_bytes, done_spec);
    EXPECT_EQ(done->state, JobState::kDone);
    EXPECT_EQ(done->attempts, 1u);
    EXPECT_EQ(done->max_attempts, 3u);
    EXPECT_EQ(done->submitted_unix_ms, 1000u);
    EXPECT_EQ(done->updated_unix_ms, 2000u);
    EXPECT_EQ(done->terminal_code, 0u);
    EXPECT_EQ(done->message, "");
    EXPECT_EQ(done->result_bytes, "result-bytes");
    Result<JobRecord> failed = mgr->Get(failed_id);
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed->idem_key, "");
    EXPECT_EQ(failed->state, JobState::kFailed);
    EXPECT_EQ(failed->attempts, 1u);
    EXPECT_EQ(failed->updated_unix_ms, 4000u);
    EXPECT_EQ(failed->terminal_code, 4u);
    EXPECT_EQ(failed->message, "crashed");
    EXPECT_EQ(failed->result_bytes, "");
  }

  // A truncated or overlong submit event creates no job. (A zero-length
  // record cannot be appended, so prefixes start at one byte.)
  const std::string submit = FromHex(submit_hex);
  for (size_t len = 1; len <= submit.size(); ++len) {
    const std::string bad =
        len < submit.size() ? submit.substr(0, len) : submit + '\x07';
    EXPECT_FALSE(Replay({bad})->Get(done_id).ok()) << len;
  }
  // A truncated or overlong state event leaves the job as submitted.
  struct StateCase {
    std::string submit_event, state_event;
    uint64_t id;
  };
  const StateCase state_cases[] = {
      {submit, FromHex(done_hex), done_id},
      {FromHex(failed_submit_hex), FromHex(failed_hex), failed_id}};
  for (const StateCase& c : state_cases) {
    const std::string& state = c.state_event;
    for (size_t len = 1; len <= state.size(); ++len) {
      const std::string bad =
          len < state.size() ? state.substr(0, len) : state + '\x07';
      Result<JobRecord> rec = Replay({c.submit_event, bad})->Get(c.id);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(rec->state, JobState::kAccepted) << len;
      EXPECT_EQ(rec->attempts, 0u) << len;
    }
  }
}

// --- GST1 store format -----------------------------------------------------
// The same discipline as the wire decoders, applied to the on-disk graph
// format: the opener must map every byte sequence to a typed outcome
// (DESIGN.md §15). These run under ASan via tools/run_sanitize.sh, where a
// lying section offset that is dereferenced before validation becomes a
// hard failure instead of a silent overread.

// --- Hostile HTTP ----------------------------------------------------------
// The gateway's HTTP parser (DESIGN.md §16) faces raw internet-shaped bytes
// on a TCP port, so it gets the same total-function treatment as the GAF1
// decoders, under the same ASan pass: random blobs, truncations of valid
// requests, header floods, and hostile Content-Length declarations must all
// return a typed HttpParseStatus without crashing or buffering past a cap.

void DrainHttpParser(std::string_view buf, const HttpLimits& limits) {
  HttpRequest request;
  size_t consumed = 0;
  std::string error;
  const HttpParseStatus status =
      ParseHttpRequest(buf, limits, &request, &consumed, &error);
  switch (status) {
    case HttpParseStatus::kComplete:
      EXPECT_LE(consumed, buf.size());
      EXPECT_LE(request.body.size(), limits.max_body_bytes);
      break;
    case HttpParseStatus::kIncomplete:
    case HttpParseStatus::kBad:
    case HttpParseStatus::kTooLarge:
    case HttpParseStatus::kBodyTooLarge:
    case HttpParseStatus::kUnsupported:
      break;
    default:
      FAIL() << "untyped HTTP parse status " << static_cast<int>(status);
  }
}

TEST(HttpFuzzTest, RandomBlobsNeverCrashTheParser) {
  SplitMix64 rng(0x687474705f66757aull);  // "http_fuz"
  const HttpLimits limits;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string blob = rng.Bytes(rng.Below(256));
    // Half the blobs get a plausible prefix so header and body parsing are
    // reached, not just the request-line check.
    switch (rng.Below(4)) {
      case 0:
        blob = "POST /v1/align HTTP/1.1\r\n" + blob;
        break;
      case 1:
        blob = "GET / HTTP/1.1\r\nContent-Length: " + blob;
        break;
      default:
        break;
    }
    DrainHttpParser(blob, limits);
  }
  DrainHttpParser("", limits);
  for (int b = 0; b < 256; ++b) {
    char c = static_cast<char>(b);
    DrainHttpParser(std::string_view(&c, 1), limits);
  }
}

TEST(HttpFuzzTest, TruncationsAndFlipsOfValidRequestsAreTyped) {
  SplitMix64 rng(0x687474705f66757bull);
  const HttpLimits limits;
  const std::string valid =
      "POST /v1/align:batch HTTP/1.1\r\n"
      "Host: localhost:8080\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 24\r\n"
      "\r\n"
      "{\"graphs\":[],\"jobs\":[]}x";
  for (size_t len = 0; len < valid.size(); ++len) {
    DrainHttpParser(std::string_view(valid.data(), len), limits);
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Below(8)));
    DrainHttpParser(mutated, limits);
  }
}

TEST(HttpFuzzTest, HeaderFloodsAreBoundedByTheCap) {
  // An endless header drip must flip to kTooLarge once the cap is crossed
  // and stay there — the caller never buffers proportional to attacker
  // input beyond max_head_bytes plus one read.
  HttpLimits limits;
  limits.max_head_bytes = 2048;
  std::string flood = "GET / HTTP/1.1\r\n";
  bool saturated = false;
  while (flood.size() < limits.max_head_bytes * 2) {
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    const HttpParseStatus status =
        ParseHttpRequest(flood, limits, &request, &consumed, &error);
    if (flood.size() > limits.max_head_bytes) {
      EXPECT_EQ(status, HttpParseStatus::kTooLarge);
      saturated = true;
    } else {
      EXPECT_EQ(status, HttpParseStatus::kIncomplete);
    }
    flood += "X-F: " + std::string(97, 'a') + "\r\n";
  }
  EXPECT_TRUE(saturated);
}

TEST(HttpFuzzTest, HostileContentLengthsNeverAllocate) {
  SplitMix64 rng(0x687474705f66757cull);
  const HttpLimits limits;
  const char* hostile[] = {
      "18446744073709551615", "99999999999999999999", "0x1000", "1e9",
      "-1", " 5", "5 ", "5,5", "+5", "005x", "", "9223372036854775808",
  };
  for (const char* cl : hostile) {
    const std::string req = "POST / HTTP/1.1\r\nContent-Length: " +
                            std::string(cl) + "\r\n\r\n";
    DrainHttpParser(req, limits);
  }
  // Random numeric declarations: over the cap must reject from the header
  // alone (kBodyTooLarge), never wait for (or buffer) the declared bytes.
  for (int iter = 0; iter < 256; ++iter) {
    const uint64_t declared = rng.Next() % (uint64_t{1} << 40);
    const std::string req = "POST / HTTP/1.1\r\nContent-Length: " +
                            std::to_string(declared) + "\r\n\r\n";
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    const HttpParseStatus status =
        ParseHttpRequest(req, limits, &request, &consumed, &error);
    if (declared > limits.max_body_bytes) {
      EXPECT_EQ(status, HttpParseStatus::kBodyTooLarge) << declared;
    } else {
      EXPECT_EQ(status, HttpParseStatus::kIncomplete) << declared;
    }
  }
}

TEST(HttpFuzzTest, JsonParserIsTotalOnHostileBodies) {
  // The JSON layer sits directly behind the HTTP body; same discipline.
  SplitMix64 rng(0x6a736f6e5f66757aull);  // "json_fuz"
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = rng.Bytes(rng.Below(160));
    if (rng.Below(2) == 0) blob = "{\"a\":[" + blob;
    Result<JsonValue> r = ParseJson(blob);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
  const std::string valid =
      R"({"graphs":[{"hash":"00ff00ff00ff00ff"},{"n":3,"edges":[[0,1]]}],)"
      R"("jobs":[{"g1":0,"g2":1,"algo":"NSD","deadline_ms":100}]})";
  for (size_t len = 0; len < valid.size(); ++len) {
    Result<JsonValue> r = ParseJson(std::string_view(valid.data(), len));
    (void)r;
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Below(8)));
    Result<JsonValue> r = ParseJson(mutated);
    if (r.ok()) {
      // Anything that parses must re-serialize without crashing.
      (void)r->Dump();
    }
  }
}

TEST(GstFuzzTest, RandomBlobsNeverCrashTheOpener) {
  SplitMix64 rng(0x6773745f66757a31ull);  // "gst_fuz1"
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = rng.Bytes(rng.Below(512));
    // Half the blobs get the real magic so version/size/table validation is
    // reached, not just the magic check.
    if (blob.size() >= 4 && rng.Below(2) == 0) {
      std::memcpy(blob.data(), kGstMagic, sizeof(kGstMagic));
    }
    DrainGstOpener(blob);
  }
  DrainGstOpener("");
  for (int b = 0; b < 256; ++b) {
    char c = static_cast<char>(b);
    DrainGstOpener(std::string_view(&c, 1));
  }
}

TEST(GstFuzzTest, EveryTruncationOfAValidFileIsCorrupt) {
  SplitMix64 rng(0x6773745f66757a32ull);
  std::string gst = SeedGstBytes(&rng, 24, 40);
  for (size_t len = 0; len < gst.size(); ++len) {
    Result<Graph> r = OpenGstAlignedCopy(std::string_view(gst.data(), len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes opened";
    EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << "len=" << len;
  }
}

TEST(GstFuzzTest, EverySingleBitFlipIsCorrupt) {
  // The header comment claims every byte is covered by exactly one CRC;
  // prove it for every bit of every byte of a seed file.
  SplitMix64 rng(0x6773745f66757a33ull);
  std::string gst = SeedGstBytes(&rng, 12, 18);
  for (size_t pos = 0; pos < gst.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = gst;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << bit));
      Result<Graph> r = OpenGstAlignedCopy(mutated);
      ASSERT_FALSE(r.ok()) << "flip at byte " << pos << " bit " << bit;
      EXPECT_EQ(r.status().code(), StatusCode::kCorrupt);
    }
  }
}

TEST(GstFuzzTest, ByteStompsOnValidFilesAreTyped) {
  SplitMix64 rng(0x6773745f66757a34ull);
  std::string gst = SeedGstBytes(&rng, 20, 30);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string mutated = gst;
    size_t pos = rng.Below(mutated.size());
    size_t n = 1 + rng.Below(16);
    for (size_t i = 0; i < n && pos + i < mutated.size(); ++i) {
      mutated[pos + i] = static_cast<char>(rng.Next() & 0xff);
    }
    DrainGstOpener(mutated);
  }
}

TEST(GstFuzzTest, HostileSectionTablesWithFixedCrcsAreStillTyped) {
  // Stomp the section-table offset/length fields with hostile values, then
  // re-stamp the header CRC so the checksum passes and the opener's bounds
  // checks are what must reject the file. Under ASan this proves no lying
  // offset is ever dereferenced before validation.
  SplitMix64 rng(0x6773745f66757a35ull);
  std::string gst = SeedGstBytes(&rng, 16, 24);
  // u64 offset and length fields of both section-table entries.
  const size_t kFields[] = {40 + 8, 40 + 16, 40 + 32 + 8, 40 + 32 + 16};
  for (size_t field : kFields) {
    for (int iter = 0; iter < 64; ++iter) {
      std::string mutated = gst;
      uint64_t hostile = 0;
      switch (iter % 4) {
        case 0:  // Pure noise.
          hostile = rng.Next();
          break;
        case 1:  // offset + length wraparound bait.
          hostile = 0xffffffffffffff00ull + rng.Below(256);
          break;
        case 2:  // Just past end of file.
          hostile = mutated.size() + rng.Below(64);
          break;
        case 3:  // In-bounds but pointing at the wrong bytes.
          hostile = rng.Below(mutated.size());
          break;
      }
      if (std::memcmp(mutated.data() + field, &hostile, sizeof(hostile)) ==
          0) {
        continue;  // Landed on the original value: still a valid file.
      }
      std::memcpy(mutated.data() + field, &hostile, sizeof(hostile));
      std::string preamble(mutated.data(), kGstPreambleBytes);
      std::memset(preamble.data() + 32, 0, 4);  // header_crc field zeroed.
      const uint32_t crc = Crc32c(preamble);
      std::memcpy(mutated.data() + 32, &crc, sizeof(crc));
      Result<Graph> r = OpenGstAlignedCopy(mutated);
      ASSERT_FALSE(r.ok()) << "field@" << field << " iter " << iter;
      EXPECT_EQ(r.status().code(), StatusCode::kCorrupt)
          << r.status().message();
    }
  }
}

}  // namespace
}  // namespace graphalign
