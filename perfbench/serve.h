// The served path under load: a `graphalign serve` daemon started from the
// built binary, driven closed-loop by client threads over GAF1 and HTTP.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/graph.h"
#include "server/protocol.h"

namespace perfbench {

// One generated alignment problem: the graphs as written to disk, the
// paths they were written to, and the ground truth (truth[u] = g2 node).
struct Pair {
  std::string id;
  graphalign::Graph g1, g2;
  std::vector<int> truth;
  std::string g1_path, g2_path;
};

enum class Kind { kMiss, kHit, kPut, kByHash };
inline constexpr int kNumKinds = 4;
const char* KindName(Kind kind);

// What the client threads send. Misses consume `miss` in order (each pair
// is new to the daemon), and puts upload the g1 graphs of the same pool in
// order (new to the store: misses travel inline and are never stored);
// hits resend `hit`, which setup aligned once so the result cache holds
// it; by-hash requests cycle over `by_hash`, whose graphs setup put into the
// store and aligned once.
struct ServeInputs {
  std::vector<Pair> miss;
  Pair hit;
  std::vector<Pair> by_hash;
};

// Every request is aligned with this method, in the daemon and in the
// in-process reference.
inline constexpr const char* kServeAlgo = "NSD";
inline constexpr const char* kServeAssign = "SG";

struct Sample {
  Kind kind = Kind::kMiss;
  bool http = false;
  int input = 0;  // Index into the pool the request drew from.
  double start = 0.0, end = 0.0;  // Seconds since the session started.
  bool ok = false;
  std::string code;     // Typed response code name, or TRANSPORT.
  std::string message;  // Error detail for non-OK responses.
  std::vector<int> mapping;  // Align kinds.
  uint64_t put_hash = 0;     // Put kind.
  double ms() const { return 1e3 * (end - start); }
};

class Daemon {
 public:
  // Starts `graphalign serve` with a Unix socket, `workers` workers, a
  // durable cache log, a graph store and the HTTP gateway under `dir`, and
  // waits until it answers a ping.
  static graphalign::Result<Daemon> Start(const std::string& graphalign,
                                          const std::string& dir,
                                          int workers);
  Daemon() = default;
  Daemon(Daemon&& other) noexcept { *this = std::move(other); }
  Daemon& operator=(Daemon&& other) noexcept;
  ~Daemon() { Stop(); }

  // VmHWM of the daemon process in MiB (0 when /proc is unavailable).
  double PeakRssMb() const;
  // Asks for a shutdown, waits up to 10 s, then kills; idempotent.
  void Stop();

  // One request over a fresh connection, never retried: `gaf1` over the
  // Unix socket, or `http_body` POSTed to `http_target` when s->http. Fills
  // the response fields of *s (ok, code, message, mapping, put_hash).
  void Send(const graphalign::Request& gaf1, const std::string& http_target,
            const std::string& http_body, Sample* s) const;
  graphalign::Result<graphalign::Response> Call(
      const graphalign::Request& request) const;

 private:
  pid_t pid_ = -1;
  std::string socket_;
  int http_port_ = -1;
};

// Builds the GAF1 request and the equivalent HTTP target/body for request
// kind `kind` drawing input `index`.
void BuildRequest(const ServeInputs& in, Kind kind, int index,
                  graphalign::Request* gaf1, std::string* target,
                  std::string* body);

// Puts the by-hash graphs into the store and aligns the hit pair and every
// by-hash pair once, so later hits and by-hash requests find them cached.
// Returns one line per request that failed (each is sent once).
std::vector<std::string> WarmDaemon(const Daemon& daemon,
                                    const ServeInputs& in);

struct SessionResult {
  std::vector<Sample> samples;
  std::vector<double> round_seconds;
  double wall_seconds = 0.0;
  // kServerStats / kCacheInfo deltas over the session.
  uint64_t cache_hits = 0, cache_misses = 0, refused = 0;
};

// Runs closed-loop rounds of `round_size` requests on `clients` threads
// (fresh connection per request, no retries) until `seconds` have passed,
// at least `min_rounds` rounds ran, or the input pools run out. Request g
// of the session has kind g % 4 (miss, hit, put, by-hash) and goes over
// HTTP when (g / 4) % 4 == 3. Every request is timed on the client, so a
// traced run makes its spans from the samples at no extra cost.
SessionResult RunSession(const Daemon& daemon, const ServeInputs& in,
                         int clients, int round_size, double seconds,
                         int min_rounds);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
