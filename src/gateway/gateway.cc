#include "gateway/gateway.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "jobs/manager.h"
#include "store/graph_store.h"

namespace graphalign {

namespace {

constexpr const char* kJsonType = "application/json";

// ---------------------------------------------------------------------------
// JSON <-> protocol translation.

// {"n": <int>, "edges": [[u,v], ...]} -> WireGraph. Bounds mirror the
// protocol decoder's: the JSON layer must not admit what GAF1 would
// reject.
bool ParseWireGraphJson(const JsonValue& v, WireGraph* g, std::string* err) {
  if (!v.is_object()) {
    *err = "graph must be an object with \"n\" and \"edges\"";
    return false;
  }
  int64_t n = 0;
  if (!v.Get("n").AsInt64(&n, 0, 8 << 20)) {
    *err = "graph \"n\" must be an integer node count";
    return false;
  }
  const JsonValue& edges = v.Get("edges");
  if (!edges.is_array()) {
    *err = "graph \"edges\" must be an array of [u,v] pairs";
    return false;
  }
  g->num_nodes = static_cast<int>(n);
  g->edges.clear();
  g->edges.reserve(edges.AsArray().size());
  for (const JsonValue& e : edges.AsArray()) {
    int64_t u = 0, vv = 0;
    if (!e.is_array() || e.AsArray().size() != 2 ||
        !e.AsArray()[0].AsInt64(&u, 0, n - 1) ||
        !e.AsArray()[1].AsInt64(&vv, 0, n - 1)) {
      *err = "graph edge must be [u,v] with endpoints in [0,n)";
      return false;
    }
    g->edges.push_back({static_cast<int>(u), static_cast<int>(vv)});
  }
  return true;
}

bool ParseHashJson(const JsonValue& v, uint64_t* hash, std::string* err) {
  if (!v.is_string()) {
    *err = "hash must be a 16-hex-digit string";
    return false;
  }
  auto parsed = GraphStore::ParseHashName(v.AsString());
  if (!parsed.ok()) {
    *err = parsed.status().ToString();
    return false;
  }
  *hash = *parsed;
  return true;
}

// Optional scalar fields shared by /v1/align jobs and batch jobs.
bool ParseJobOptions(const JsonValue& v, std::string* assign,
                     uint64_t* deadline_ms, uint64_t* mem_limit_mb,
                     bool* no_cache, std::string* err) {
  if (v.Has("assign")) {
    if (!v.Get("assign").is_string() ||
        v.Get("assign").AsString().size() > kMaxNameLen) {
      *err = "\"assign\" must be a short string";
      return false;
    }
    *assign = v.Get("assign").AsString();
  }
  int64_t tmp = 0;
  if (v.Has("deadline_ms")) {
    if (!v.Get("deadline_ms").AsInt64(&tmp, 0, int64_t{1} << 40)) {
      *err = "\"deadline_ms\" must be a non-negative integer";
      return false;
    }
    *deadline_ms = static_cast<uint64_t>(tmp);
  }
  if (v.Has("mem_limit_mb")) {
    if (!v.Get("mem_limit_mb").AsInt64(&tmp, 0, int64_t{1} << 30)) {
      *err = "\"mem_limit_mb\" must be a non-negative integer";
      return false;
    }
    *mem_limit_mb = static_cast<uint64_t>(tmp);
  }
  if (v.Has("no_cache")) {
    if (!v.Get("no_cache").is_bool()) {
      *err = "\"no_cache\" must be a boolean";
      return false;
    }
    *no_cache = v.Get("no_cache").AsBool();
  }
  return true;
}

bool ParseAlgo(const JsonValue& v, std::string* algo, std::string* err) {
  if (!v.Get("algo").is_string() ||
      v.Get("algo").AsString().empty() ||
      v.Get("algo").AsString().size() > kMaxNameLen) {
    *err = "\"algo\" is required and must be a short string";
    return false;
  }
  *algo = v.Get("algo").AsString();
  return true;
}

bool ParseClient(const JsonValue& v, std::string* client, std::string* err) {
  if (!v.Has("client")) return true;
  if (!v.Get("client").is_string() ||
      v.Get("client").AsString().size() > kMaxNameLen) {
    *err = "\"client\" must be a short string";
    return false;
  }
  *client = v.Get("client").AsString();
  return true;
}

// POST /v1/align body -> kAlign request. Graphs arrive either both inline
// ("g1"/"g2") or both by store hash ("g1_hash"/"g2_hash") — the same
// exclusivity the wire protocol enforces.
bool BuildAlignRequest(const JsonValue& v, Request* request,
                       std::string* err) {
  if (!v.is_object()) {
    *err = "body must be a JSON object";
    return false;
  }
  request->type = RequestType::kAlign;
  AlignRequest& a = request->align;
  if (!ParseAlgo(v, &a.algo, err) || !ParseClient(v, &request->client, err) ||
      !ParseJobOptions(v, &a.assign, &a.deadline_ms, &a.mem_limit_mb,
                       &a.no_cache, err)) {
    return false;
  }
  const bool hashed = v.Has("g1_hash") || v.Has("g2_hash");
  const bool inline_graphs = v.Has("g1") || v.Has("g2");
  if (hashed == inline_graphs) {
    *err = "provide either g1/g2 inline graphs or g1_hash/g2_hash (not both)";
    return false;
  }
  if (hashed) {
    a.by_hash = true;
    if (!ParseHashJson(v.Get("g1_hash"), &a.g1_hash, err) ||
        !ParseHashJson(v.Get("g2_hash"), &a.g2_hash, err)) {
      return false;
    }
  } else {
    if (!ParseWireGraphJson(v.Get("g1"), &a.g1, err) ||
        !ParseWireGraphJson(v.Get("g2"), &a.g2, err)) {
      return false;
    }
  }
  return true;
}

// POST /v1/align:batch body -> kAlignBatch request.
bool BuildBatchRequest(const JsonValue& v, Request* request,
                       std::string* err) {
  if (!v.is_object()) {
    *err = "body must be a JSON object";
    return false;
  }
  request->type = RequestType::kAlignBatch;
  if (!ParseClient(v, &request->client, err)) return false;
  AlignBatchRequest& b = request->align_batch;
  const JsonValue& graphs = v.Get("graphs");
  if (!graphs.is_array() || graphs.AsArray().empty() ||
      graphs.AsArray().size() > kMaxBatchGraphs) {
    *err = "\"graphs\" must be a non-empty array of at most " +
           std::to_string(kMaxBatchGraphs) + " entries";
    return false;
  }
  for (const JsonValue& g : graphs.AsArray()) {
    BatchGraphRef ref;
    if (g.is_object() && g.Has("hash")) {
      ref.by_hash = true;
      if (!ParseHashJson(g.Get("hash"), &ref.hash, err)) return false;
    } else if (!ParseWireGraphJson(g, &ref.inline_graph, err)) {
      return false;
    }
    b.graphs.push_back(std::move(ref));
  }
  const JsonValue& jobs = v.Get("jobs");
  if (!jobs.is_array() || jobs.AsArray().empty() ||
      jobs.AsArray().size() > kMaxBatchJobs) {
    *err = "\"jobs\" must be a non-empty array of at most " +
           std::to_string(kMaxBatchJobs) + " entries";
    return false;
  }
  for (const JsonValue& j : jobs.AsArray()) {
    if (!j.is_object()) {
      *err = "each job must be an object";
      return false;
    }
    BatchJob job;
    int64_t g1 = 0, g2 = 0;
    const int64_t max_idx = static_cast<int64_t>(b.graphs.size()) - 1;
    if (!j.Get("g1").AsInt64(&g1, 0, max_idx) ||
        !j.Get("g2").AsInt64(&g2, 0, max_idx)) {
      *err = "job \"g1\"/\"g2\" must index into \"graphs\"";
      return false;
    }
    job.g1 = static_cast<uint32_t>(g1);
    job.g2 = static_cast<uint32_t>(g2);
    if (!ParseAlgo(j, &job.algo, err) ||
        !ParseJobOptions(j, &job.assign, &job.deadline_ms, &job.mem_limit_mb,
                         &job.no_cache, err)) {
      return false;
    }
    b.jobs.push_back(std::move(job));
  }
  return true;
}

JsonValue AlignResultJson(const AlignResult& r) {
  JsonValue out = JsonValue::Object();
  JsonValue mapping = JsonValue::Array();
  for (int32_t m : r.mapping) {
    mapping.Push(JsonValue::Number(static_cast<double>(m)));
  }
  out.Set("mapping", std::move(mapping));
  out.Set("mnc", JsonValue::Number(r.mnc));
  out.Set("ec", JsonValue::Number(r.ec));
  out.Set("s3", JsonValue::Number(r.s3));
  out.Set("align_seconds", JsonValue::Number(r.align_seconds));
  out.Set("degraded", JsonValue::Bool(r.degraded));
  if (r.degraded) {
    out.Set("degrade_reason", JsonValue::Str(r.degrade_reason));
  }
  return out;
}

// Async-job envelope shared by POST /v1/jobs, GET /v1/jobs/<id>, and
// DELETE /v1/jobs/<id>. The job id is rendered as the same 16-hex-digit
// string `submit --async` prints, never a JSON number: a u64 does not
// survive the double round trip.
JsonValue JobInfoJson(const JobInfo& info) {
  JsonValue out = JsonValue::Object();
  out.Set("job_id", JsonValue::Str(GraphStore::HashName(info.job_id)));
  out.Set("state", JsonValue::Str(info.state_name));
  out.Set("attempts", JsonValue::Number(static_cast<double>(info.attempts)));
  out.Set("max_attempts",
          JsonValue::Number(static_cast<double>(info.max_attempts)));
  out.Set("submitted_unix_ms",
          JsonValue::Number(static_cast<double>(info.submitted_unix_ms)));
  out.Set("updated_unix_ms",
          JsonValue::Number(static_cast<double>(info.updated_unix_ms)));
  out.Set("existing", JsonValue::Bool(info.existing));
  if (JobStateTerminal(static_cast<JobState>(info.state))) {
    out.Set("terminal_status",
            JsonValue::Str(ResponseCodeName(
                static_cast<ResponseCode>(info.terminal_code))));
  }
  if (!info.message.empty()) {
    out.Set("message", JsonValue::Str(info.message));
  }
  return out;
}

// Walks the ServerStatsResult field list (server/protocol.h) into a JSON
// object: every keyed field becomes a number member, and the keyed
// worker_restarts sequence an array of its elements.
class JsonStatsWriter {
 public:
  void U64(uint64_t& v, const char* key = nullptr) {
    Put(key, static_cast<double>(v));
  }
  void F64(double& v, const char* key) { Put(key, v); }
  template <class T, class Each>
  void Seq32(std::vector<T>& v, uint32_t /*max_count*/, Each each,
             const char* key) {
    array_ = JsonValue::Array();
    for (T& x : v) each(x);
    object_.Set(key, std::move(array_));
  }

  JsonValue Take() { return std::move(object_); }

 private:
  // An unkeyed number is an element of the sequence being walked.
  void Put(const char* key, double v) {
    if (key == nullptr) {
      array_.Push(JsonValue::Number(v));
    } else {
      object_.Set(key, JsonValue::Number(v));
    }
  }

  JsonValue object_ = JsonValue::Object();
  JsonValue array_;
};

}  // namespace

Status BatchRequestFromJson(const JsonValue& body, Request* request) {
  std::string err;
  if (!BuildBatchRequest(body, request, &err)) {
    return Status::InvalidArgument(err);
  }
  return Status::Ok();
}

int HttpStatusForResponseCode(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return 200;
    case ResponseCode::kAccepted: return 202;
    case ResponseCode::kPartial: return 207;
    case ResponseCode::kBadRequest: return 400;
    case ResponseCode::kQuarantined: return 409;
    case ResponseCode::kConflict: return 409;
    case ResponseCode::kNoGraph: return 404;
    case ResponseCode::kNoJob: return 404;
    case ResponseCode::kBusy: return 429;
    case ResponseCode::kShuttingDown:
    case ResponseCode::kShed:
      return 503;
    case ResponseCode::kDnf: return 504;
    case ResponseCode::kError:
    case ResponseCode::kCrash:
    case ResponseCode::kOom:
    case ResponseCode::kNumerical:
      return 500;
  }
  return 500;
}

namespace {

// Writes all of `bytes`; false on socket error (peer gone).
bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrorBody(const char* status_name, const std::string& detail) {
  return std::string("{\"status\":\"") + status_name + "\",\"error\":\"" +
         JsonEscape(detail) + "\"}";
}

// The shared tail of every daemon answer: map the typed ResponseCode to an
// HTTP status and attach the standard envelope fields.
std::string EncodeDaemonResponse(const Response& response, JsonValue body,
                                 bool keep_alive) {
  body.Set("status", JsonValue::Str(ResponseCodeName(response.code)));
  body.Set("cache_hit", JsonValue::Bool(response.cache_hit));
  body.Set("elapsed_us",
           JsonValue::Number(static_cast<double>(response.elapsed_us)));
  if (!response.message.empty()) {
    body.Set("error", JsonValue::Str(response.message));
  }
  const int status = HttpStatusForResponseCode(response.code);
  std::vector<std::pair<std::string, std::string>> extra;
  if (response.retry_after_ms > 0 && (status == 429 || status == 503)) {
    // Retry-After is delta-seconds; round up so a 250ms hint never
    // becomes "retry immediately". The exact millisecond hint rides in
    // the body for clients that want the finer grain.
    extra.emplace_back(
        "Retry-After", std::to_string((response.retry_after_ms + 999) / 1000));
    body.Set("retry_after_ms",
             JsonValue::Number(static_cast<double>(response.retry_after_ms)));
  }
  return EncodeHttpResponse(status, kJsonType, body.Dump(), keep_alive, extra);
}

JsonValue CountersJson(const HttpCounters& c) {
  JsonValue out = JsonValue::Object();
  const std::pair<const char*, const std::atomic<uint64_t>*> fields[] = {
      {"connections", &c.connections},
      {"requests", &c.requests},
      {"rejected_overload", &c.rejected_overload},
      {"bad_requests", &c.bad_requests},
      {"oversized", &c.oversized},
      {"timeouts", &c.timeouts},
  };
  for (const auto& [key, value] : fields) {
    out.Set(key, JsonValue::Number(static_cast<double>(
                     value->load(std::memory_order_relaxed))));
  }
  return out;
}

// One HTTP connection being served by a daemon worker.
class HttpSession {
 public:
  HttpSession(int fd, double io_timeout_seconds, HttpCounters* counters,
              const std::function<bool()>& closing,
              const std::function<Response(Request)>& call)
      : fd_(fd),
        io_timeout_seconds_(io_timeout_seconds),
        counters_(counters),
        closing_(closing),
        call_(call) {}

  void Serve() {
    const HttpLimits limits;
    std::string buf;
    WallTimer request_timer;
    bool mid_request = false;
    for (;;) {
      // Drain complete requests already buffered (pipelined or keep-alive).
      for (;;) {
        HttpRequest request;
        size_t consumed = 0;
        std::string perr;
        const HttpParseStatus ps =
            ParseHttpRequest(buf, limits, &request, &consumed, &perr);
        if (ps == HttpParseStatus::kIncomplete) {
          mid_request = !buf.empty();
          break;
        }
        Count(counters_->requests);
        if (ps != HttpParseStatus::kComplete) {
          // Typed rejection, then hang up: after a framing violation there
          // is no trustworthy request boundary left.
          int status = 400;
          if (ps == HttpParseStatus::kTooLarge) status = 431;
          if (ps == HttpParseStatus::kBodyTooLarge) status = 413;
          if (ps == HttpParseStatus::kUnsupported) status = 501;
          Count(status == 413 ? counters_->oversized : counters_->bad_requests);
          (void)Send(status, ErrorBody("BAD_REQUEST", perr), false);
          return;
        }
        buf.erase(0, consumed);
        const bool keep_alive = request.KeepAlive() && !closing_();
        if (!Route(request, keep_alive)) return;
        if (!keep_alive) return;
        request_timer.Restart();
        mid_request = !buf.empty();
      }
      // Need more bytes. The per-recv socket timeout plus this wall check
      // bounds how long a drip-fed (slowloris) request can hold the worker.
      if (request_timer.Seconds() > io_timeout_seconds_) {
        if (mid_request) RequestTimeout();
        return;
      }
      char chunk[16 * 1024];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return;  // Peer closed.
      if (n < 0) {
        if (errno == EINTR) continue;
        if ((errno == EAGAIN || errno == EWOULDBLOCK) && mid_request) {
          RequestTimeout();
        }
        return;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  static void Count(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  bool Send(int status, const std::string& body, bool keep_alive,
            const char* content_type = kJsonType) {
    return SendAll(fd_, EncodeHttpResponse(status, content_type, body,
                                           keep_alive));
  }

  void RequestTimeout() {
    Count(counters_->timeouts);
    (void)Send(408, ErrorBody("BAD_REQUEST", "request not completed in time"),
               false);
  }

  // Routes one parsed request; false when the socket died mid-response.
  bool Route(const HttpRequest& request, bool keep_alive) {
    // Strip any query string: routing is path-only.
    std::string path = request.target;
    const size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);

    if (path == "/healthz") {
      if (request.method != "GET") return MethodNotAllowed(keep_alive);
      Request ping;
      ping.type = RequestType::kPing;
      const Response response = call_(std::move(ping));
      if (response.code != ResponseCode::kOk) {
        return Send(503, ErrorBody("ERROR", response.message), keep_alive);
      }
      return Send(200, "ok\n", keep_alive, "text/plain");
    }
    if (path == "/stats") {
      if (request.method != "GET") return MethodNotAllowed(keep_alive);
      return HandleStats(keep_alive);
    }
    if (path == "/v1/graphs") {
      if (request.method != "POST") return MethodNotAllowed(keep_alive);
      return HandlePutGraph(request, keep_alive);
    }
    if (path.rfind("/v1/graphs/", 0) == 0) {
      if (request.method != "GET") return MethodNotAllowed(keep_alive);
      return HandleHasGraph(path.substr(strlen("/v1/graphs/")), keep_alive);
    }
    if (path == "/v1/align") {
      if (request.method != "POST") return MethodNotAllowed(keep_alive);
      return HandleAlign(request, keep_alive);
    }
    if (path == "/v1/jobs") {
      if (request.method != "POST") return MethodNotAllowed(keep_alive);
      return HandleSubmitJob(request, keep_alive);
    }
    if (path.rfind("/v1/jobs/", 0) == 0) {
      const std::string id_name = path.substr(strlen("/v1/jobs/"));
      if (request.method == "GET") return HandleJobStatus(id_name, keep_alive);
      if (request.method == "DELETE") {
        return HandleCancelJob(id_name, keep_alive);
      }
      return MethodNotAllowed(keep_alive);
    }
    if (path == "/v1/align:batch") {
      if (request.method != "POST") return MethodNotAllowed(keep_alive);
      return HandleAlignBatch(request, keep_alive);
    }
    Count(counters_->bad_requests);
    return Send(404, ErrorBody("BAD_REQUEST", "no such route: " + path),
                keep_alive);
  }

  bool MethodNotAllowed(bool keep_alive) {
    Count(counters_->bad_requests);
    return Send(405,
                ErrorBody("BAD_REQUEST", "method not allowed on this route"),
                keep_alive);
  }

  bool BadJson(const std::string& detail, bool keep_alive) {
    Count(counters_->bad_requests);
    return Send(400, ErrorBody("BAD_REQUEST", detail), keep_alive);
  }

  bool SendDaemonResponse(const Response& response, JsonValue body,
                          bool keep_alive) {
    return SendAll(fd_,
                   EncodeDaemonResponse(response, std::move(body), keep_alive));
  }

  bool HandleStats(bool keep_alive) {
    Request req;
    req.type = RequestType::kServerStats;
    const Response response = call_(std::move(req));
    JsonValue out = JsonValue::Object();
    out.Set("gateway", CountersJson(*counters_));
    auto decoded = DecodeServerStatsResult(response.body);
    if (response.code != ResponseCode::kOk || !decoded.ok()) {
      out.Set("status", JsonValue::Str(ResponseCodeName(response.code)));
      out.Set("error", JsonValue::Str(response.message));
      return Send(HttpStatusForResponseCode(response.code), out.Dump(),
                  keep_alive);
    }
    JsonStatsWriter daemon;
    Fields(daemon, *decoded);
    out.Set("daemon", daemon.Take());
    out.Set("status", JsonValue::Str("OK"));
    return Send(200, out.Dump(), keep_alive);
  }

  bool HandlePutGraph(const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) return BadJson(parsed.status().ToString(), keep_alive);
    Request req;
    req.type = RequestType::kPutGraph;
    std::string err;
    if (!ParseClient(*parsed, &req.client, &err) ||
        !ParseWireGraphJson(*parsed, &req.put_graph.g, &err)) {
      return BadJson(err, keep_alive);
    }
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    if (response.code == ResponseCode::kOk) {
      auto result = DecodePutGraphResult(response.body);
      if (result.ok()) {
        body.Set("hash", JsonValue::Str(GraphStore::HashName(
                             result->content_hash)));
        body.Set("already_present", JsonValue::Bool(result->already_present));
      }
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  bool HandleHasGraph(const std::string& hash_name, bool keep_alive) {
    auto hash = GraphStore::ParseHashName(hash_name);
    if (!hash.ok()) return BadJson(hash.status().ToString(), keep_alive);
    Request req;
    req.type = RequestType::kHasGraph;
    req.has_graph.hash = *hash;
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    body.Set("hash", JsonValue::Str(hash_name));
    if (response.code == ResponseCode::kOk) {
      auto result = DecodeHasGraphResult(response.body);
      const bool present = result.ok() && result->present;
      body.Set("present", JsonValue::Bool(present));
      if (!present) {
        // An absent graph is a 404 with a well-formed body, mirroring
        // NO_GRAPH on the align path.
        body.Set("status", JsonValue::Str("NO_GRAPH"));
        return Send(404, body.Dump(), keep_alive);
      }
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  bool HandleAlign(const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) return BadJson(parsed.status().ToString(), keep_alive);
    Request req;
    std::string err;
    if (!BuildAlignRequest(*parsed, &req, &err)) {
      return BadJson(err, keep_alive);
    }
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    if (response.code == ResponseCode::kOk) {
      auto result = DecodeAlignResult(response.body);
      if (result.ok()) body = AlignResultJson(*result);
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  // POST /v1/jobs: the /v1/align JSON schema plus an optional "idem_key"
  // string. Accepted (or deduplicated) jobs come back 202 with the job
  // envelope; poll GET /v1/jobs/<id> for completion.
  bool HandleSubmitJob(const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) return BadJson(parsed.status().ToString(), keep_alive);
    Request req;
    std::string err;
    if (!BuildAlignRequest(*parsed, &req, &err)) {
      return BadJson(err, keep_alive);
    }
    // Re-target the parsed align at the async surface.
    req.type = RequestType::kSubmitJob;
    req.submit_job.align = std::move(req.align);
    req.align = AlignRequest{};
    if (parsed->Has("idem_key")) {
      if (!parsed->Get("idem_key").is_string() ||
          parsed->Get("idem_key").AsString().empty() ||
          parsed->Get("idem_key").AsString().size() > kMaxNameLen) {
        return BadJson("\"idem_key\" must be a short non-empty string",
                       keep_alive);
      }
      req.submit_job.idem_key = parsed->Get("idem_key").AsString();
    }
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    if (response.code == ResponseCode::kAccepted) {
      auto info = DecodeJobInfo(response.body);
      if (info.ok()) body = JobInfoJson(*info);
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  // GET /v1/jobs/<16hex>: the job envelope; once the job is DONE the
  // response embeds the alignment result under "result", so one poll
  // both observes completion and retrieves the mapping.
  bool HandleJobStatus(const std::string& id_name, bool keep_alive) {
    auto id = GraphStore::ParseHashName(id_name);
    if (!id.ok()) {
      return BadJson("job id must be 16 hex digits: " + id_name, keep_alive);
    }
    Request req;
    req.type = RequestType::kJobStatus;
    req.job_id.job_id = *id;
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    if (response.code == ResponseCode::kOk) {
      auto info = DecodeJobInfo(response.body);
      if (info.ok()) {
        body = JobInfoJson(*info);
        if (static_cast<JobState>(info->state) == JobState::kDone) {
          Request result_req;
          result_req.type = RequestType::kJobResult;
          result_req.job_id.job_id = *id;
          const Response result = call_(std::move(result_req));
          if (result.code == ResponseCode::kOk) {
            auto align = DecodeAlignResult(result.body);
            if (align.ok()) body.Set("result", AlignResultJson(*align));
          }
        }
      }
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  // DELETE /v1/jobs/<16hex>: cancel. 200 with the (now CANCELLED)
  // envelope, 404 for an unknown id, 409 when the job already finished.
  bool HandleCancelJob(const std::string& id_name, bool keep_alive) {
    auto id = GraphStore::ParseHashName(id_name);
    if (!id.ok()) {
      return BadJson("job id must be 16 hex digits: " + id_name, keep_alive);
    }
    Request req;
    req.type = RequestType::kCancelJob;
    req.job_id.job_id = *id;
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    if (response.code == ResponseCode::kOk) {
      auto info = DecodeJobInfo(response.body);
      if (info.ok()) body = JobInfoJson(*info);
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  bool HandleAlignBatch(const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) return BadJson(parsed.status().ToString(), keep_alive);
    Request req;
    std::string err;
    if (!BuildBatchRequest(*parsed, &req, &err)) {
      return BadJson(err, keep_alive);
    }
    const Response response = call_(std::move(req));
    JsonValue body = JsonValue::Object();
    auto result = DecodeAlignBatchResult(response.body);
    if (result.ok()) {
      body.Set("graph_loads",
               JsonValue::Number(static_cast<double>(result->graph_loads)));
      JsonValue jobs = JsonValue::Array();
      for (const BatchJobOutcome& out : result->jobs) {
        JsonValue job = JsonValue::Object();
        if (out.code == ResponseCode::kOk) {
          auto align = DecodeAlignResult(out.body);
          if (align.ok()) job = AlignResultJson(*align);
        }
        job.Set("status", JsonValue::Str(ResponseCodeName(out.code)));
        job.Set("cache_hit", JsonValue::Bool(out.cache_hit));
        if (!out.message.empty()) {
          job.Set("error", JsonValue::Str(out.message));
        }
        jobs.Push(std::move(job));
      }
      body.Set("jobs", std::move(jobs));
    }
    return SendDaemonResponse(response, std::move(body), keep_alive);
  }

  const int fd_;
  const double io_timeout_seconds_;
  HttpCounters* const counters_;
  const std::function<bool()>& closing_;
  const std::function<Response(Request)>& call_;
};

}  // namespace

void ServeHttpConnection(int fd, double io_timeout_seconds,
                         HttpCounters* counters,
                         const std::function<bool()>& closing,
                         const std::function<Response(Request)>& call) {
  HttpSession(fd, io_timeout_seconds, counters, closing, call).Serve();
}

void SendHttpRejection(int fd, const Response& response) {
  (void)SendAll(fd, EncodeDaemonResponse(response, JsonValue::Object(),
                                         /*keep_alive=*/false));
}

}  // namespace graphalign
