// The HTTP/JSON front end of the alignment daemon (DESIGN.md §16).
//
// `serve --http-port N` makes the daemon listen on a second, loopback TCP
// port. HTTP connections are accepted by the daemon's own accept loop, wait
// in the same admission queue as GAF1 connections, and are served by the
// same workers (server/server.h). This module holds only the HTTP side of
// a connection: ServeHttpConnection parses requests (gateway/http.h),
// translates their JSON into protocol Requests, hands each to the daemon
// in process through `call`, and maps the typed ResponseCode back onto an
// HTTP status. It opens no socket and starts no thread; quotas, shedding,
// quarantine, the watchdog, the result cache and the per-transport counters
// therefore apply to HTTP traffic through the one path GAF1 uses.
//
// Routes:
//   GET  /healthz              kPing → 200 "ok" | 503
//   GET  /stats                kServerStats + HTTP counters, JSON
//   POST /v1/graphs            {"n","edges"} → kPutGraph → {"hash",...}
//   GET  /v1/graphs/<16hex>    kHasGraph → 200 | 404
//   POST /v1/align             JSON align job (inline or *_hash) → kAlign
//   POST /v1/align:batch       {"graphs":[...],"jobs":[...]} → kAlignBatch
//   POST   /v1/jobs            align JSON + optional "idem_key"
//                              → kSubmitJob → 202 job envelope
//   GET    /v1/jobs/<16hex>    kJobStatus (+ embedded "result" once DONE)
//   DELETE /v1/jobs/<16hex>    kCancelJob → 200 | 404 | 409
//
// Status mapping (mirrors the exit-code table; the JSON body always
// carries the exact code name in "status"):
//   OK→200  ACCEPTED→202  PARTIAL→207  BAD_REQUEST→400
//   NO_GRAPH/NO_JOB→404  BUSY→429  SHED/SHUTTING_DOWN→503  DNF→504
//   QUARANTINED/CONFLICT→409  ERROR/CRASH/OOM/NUMERICAL→500
// plus HTTP-local 400 (bad HTTP/JSON), 404 (unknown route), 405, 408
// (idle/slowloris timeout), 413 (body cap), 431 (head cap) and 501
// (unsupported framing). A connection the daemon turns away before any
// request is read (full admission queue, drain) gets the same mapping
// through SendHttpRejection: 429 BUSY or 503 SHUTTING_DOWN.
//
// Transient rejections (429 busy/quota, 503 shed/drain) carry a
// Retry-After header (delta-seconds, rounded up) plus "retry_after_ms" in
// the body — the server-side backoff hint `submit --retries` honors over
// its jitter schedule.
#ifndef GRAPHALIGN_GATEWAY_GATEWAY_H_
#define GRAPHALIGN_GATEWAY_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "gateway/http.h"
#include "gateway/json.h"
#include "server/protocol.h"

namespace graphalign {

// HTTP-side counters, surfaced under "gateway" in GET /stats. The daemon
// owns them; its accept loop counts connections and queue refusals, and
// ServeHttpConnection counts the rest.
struct HttpCounters {
  std::atomic<uint64_t> connections{0};        // Accepted HTTP sockets.
  std::atomic<uint64_t> requests{0};           // Requests answered (any status).
  std::atomic<uint64_t> rejected_overload{0};  // Refused by the full queue.
  std::atomic<uint64_t> bad_requests{0};       // 400/404/405/431/501.
  std::atomic<uint64_t> oversized{0};          // 413 (body cap).
  std::atomic<uint64_t> timeouts{0};           // 408 (idle / slow request).
};

// Serves one accepted HTTP connection until the peer closes, a request
// asks for Connection: close, a framing error or timeout ends it, or
// `closing()` turns true (the daemon is stopping or draining: the request
// in hand is answered, then the connection closes). Keep-alive and
// pipelined requests are answered in order. `io_timeout_seconds` bounds
// how long one request may take to arrive (408). `call` runs a Request in
// the daemon and returns its Response. Returns when the connection is
// done; the caller owns and closes `fd`.
void ServeHttpConnection(int fd, double io_timeout_seconds,
                         HttpCounters* counters,
                         const std::function<bool()>& closing,
                         const std::function<Response(Request)>& call);

// Writes `response` as a complete HTTP reply with Connection: close: the
// status from HttpStatusForResponseCode, the {"status","error"} JSON body,
// and Retry-After when the response carries a backoff hint. Best effort —
// used to turn a connection away before any request was read.
void SendHttpRejection(int fd, const Response& response);

// The HTTP status for a daemon response code (the table above). Exposed
// for tests and the CLI so the mapping is pinned in exactly one place.
int HttpStatusForResponseCode(ResponseCode code);

// Builds a kAlignBatch request from the batch JSON schema (README):
//   {"graphs":[{"hash":"16hex"}|{"n":N,"edges":[[u,v],...]}, ...],
//    "jobs":[{"g1":i,"g2":j,"algo":"...",("assign","deadline_ms",
//             "mem_limit_mb","no_cache")}, ...], ("client")}
// Shared by POST /v1/align:batch and `graphalign submit --batch` so the
// two entry points cannot drift. InvalidArgument names the violation.
Status BatchRequestFromJson(const JsonValue& body, Request* request);

}  // namespace graphalign

#endif  // GRAPHALIGN_GATEWAY_GATEWAY_H_
