#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "gateway/json.h"
#include "server/client.h"
#include "store/graph_store.h"

namespace perfbench {

using graphalign::Request;
using graphalign::RequestType;
using graphalign::Response;
using graphalign::ResponseCode;
using graphalign::Result;
using graphalign::Status;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMiss: return "miss";
    case Kind::kHit: return "hit";
    case Kind::kPut: return "put";
    case Kind::kByHash: return "byhash";
  }
  return "?";
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string GraphJson(const graphalign::Graph& g) {
  std::string out = "{\"n\":" + std::to_string(g.num_nodes()) + ",\"edges\":[";
  bool first = true;
  for (const graphalign::Edge& e : g.Edges()) {
    out += first ? "[" : ",[";
    out += std::to_string(e.u) + "," + std::to_string(e.v) + "]";
    first = false;
  }
  return out + "]}";
}

std::string AlignHead() {
  return std::string("{\"client\":\"perfbench\",\"algo\":\"") + kServeAlgo +
         "\",\"assign\":\"" + kServeAssign + "\"";
}

// Minimal blocking HTTP/1.1 POST to the loopback gateway: one connection,
// Connection: close, read to EOF. Returns the HTTP status and the body.
bool HttpPost(int port, const std::string& target, const std::string& body,
              int* status, std::string* reply_body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  struct timeval tv = {60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
      "Connection: close\r\nContent-Type: application/json\r\n" +
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = reply.find("\r\n\r\n");
  if (reply.compare(0, 5, "HTTP/") != 0 || reply.size() < 12 ||
      split == std::string::npos) {
    return false;
  }
  *status = std::atoi(reply.c_str() + 9);
  *reply_body = reply.substr(split + 4);
  return true;
}

void ParseHttpReply(const std::string& body, int status, Sample* s) {
  auto parsed = graphalign::ParseJson(body);
  if (!parsed.ok()) {
    s->code = "HTTP_" + std::to_string(status);
    s->message = "unparsable body: " + parsed.status().ToString();
    return;
  }
  const graphalign::JsonValue& v = *parsed;
  s->code = v.Get("status").is_string() ? v.Get("status").AsString()
                                        : "HTTP_" + std::to_string(status);
  if (v.Get("error").is_string()) s->message = v.Get("error").AsString();
  s->ok = s->code == "OK";
  if (!s->ok) return;
  if (s->kind == Kind::kPut) {
    auto hash = v.Get("hash").is_string()
                    ? graphalign::GraphStore::ParseHashName(
                          v.Get("hash").AsString())
                    : Result<uint64_t>(Status::Internal("no hash"));
    if (!hash.ok()) {
      s->ok = false;
      s->message = "put reply without a hash";
      return;
    }
    s->put_hash = *hash;
    return;
  }
  const graphalign::JsonValue& mapping = v.Get("mapping");
  if (!mapping.is_array()) {
    s->ok = false;
    s->message = "align reply without a mapping";
    return;
  }
  s->mapping.reserve(mapping.AsArray().size());
  for (const graphalign::JsonValue& m : mapping.AsArray()) {
    int64_t x = 0;
    if (!m.AsInt64(&x, -1, INT32_MAX)) {
      s->ok = false;
      s->message = "mapping entry is not an integer";
      return;
    }
    s->mapping.push_back(static_cast<int>(x));
  }
}

Result<Response> CallOk(const Daemon& daemon, const Request& request) {
  auto r = daemon.Call(request);
  if (!r.ok()) return r.status();
  if (r->code != ResponseCode::kOk) {
    return Status::Internal(std::string(ResponseCodeName(r->code)) + ": " +
                            r->message);
  }
  return r;
}

Result<graphalign::ServerStatsResult> ServerStats(const Daemon& daemon) {
  Request req;
  req.type = RequestType::kServerStats;
  GA_ASSIGN_OR_RETURN(Response r, CallOk(daemon, req));
  return graphalign::DecodeServerStatsResult(r.body);
}

Result<graphalign::CacheInfoResult> CacheInfo(const Daemon& daemon) {
  Request req;
  req.type = RequestType::kCacheInfo;
  GA_ASSIGN_OR_RETURN(Response r, CallOk(daemon, req));
  return graphalign::DecodeCacheInfoResult(r.body);
}

// Number of rounds the pools of `in` can feed.
int MaxRounds(const ServeInputs& in, int round_size) {
  // Request g draws input g / 4 of its kind; misses and puts are consumed.
  return static_cast<int>(in.miss.size() * kNumKinds / round_size);
}

}  // namespace

Daemon& Daemon::operator=(Daemon&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = other.pid_;
    socket_ = std::move(other.socket_);
    http_port_ = other.http_port_;
    other.pid_ = -1;
  }
  return *this;
}

Result<Daemon> Daemon::Start(const std::string& graphalign,
                             const std::string& dir, int workers) {
  const std::string out_path = dir + "/daemon.out";
  const std::string err_path = dir + "/daemon.err";
  Daemon d;
  d.socket_ = dir + "/s.sock";
  const std::string workers_arg = std::to_string(workers);
  const std::string cache_dir = dir + "/cache";
  const std::string store_dir = dir + "/store";
  std::vector<std::string> args = {graphalign,  "serve",       "--socket",
                                   d.socket_,   "--workers",   workers_arg,
                                   "--cache-dir", cache_dir,   "--store-dir",
                                   store_dir,   "--http-port", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int flags = O_WRONLY | O_CREAT | O_TRUNC;
  const int out_fd = ::open(out_path.c_str(), flags, 0644);
  const int err_fd = ::open(err_path.c_str(), flags, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY);
  if (out_fd < 0 || err_fd < 0 || null_fd < 0) {
    for (int fd : {out_fd, err_fd, null_fd}) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Internal("cannot create daemon log files in " + dir);
  }
  const pid_t parent = ::getpid();
  d.pid_ = ::fork();
  if (d.pid_ == 0) {
    // Only async-signal-safe calls until exec. The daemon dies with the
    // benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  for (int fd : {out_fd, err_fd, null_fd}) ::close(fd);
  if (d.pid_ < 0) {
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  // The daemon announces the kernel-assigned gateway port on stdout.
  const std::string marker = "graphalign gateway serving on 127.0.0.1:";
  const Clock::time_point t0 = Clock::now();
  while (d.http_port_ < 0) {
    const std::string out = ReadFile(out_path);
    const size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      d.http_port_ = std::atoi(out.c_str() + at + marker.size());
      break;
    }
    int status = 0;
    if (waitpid(d.pid_, &status, WNOHANG) == d.pid_) {
      d.pid_ = -1;
      return Status::Internal("graphalign serve exited at startup: " +
                              ReadFile(err_path));
    }
    if (SecondsSince(t0) > 30.0) {
      return Status::Internal("graphalign serve did not announce its port");
    }
    SleepMs(2);
  }
  Request ping;
  ping.type = RequestType::kPing;
  while (!CallOk(d, ping).ok()) {
    if (SecondsSince(t0) > 30.0) {
      return Status::Internal("graphalign serve does not answer pings");
    }
    SleepMs(2);
  }
  return d;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  Request req;
  req.type = RequestType::kShutdown;
  (void)Call(req);
  int status = 0;
  const Clock::time_point t0 = Clock::now();
  while (waitpid(pid_, &status, WNOHANG) != pid_) {
    if (SecondsSince(t0) > 10.0) {
      ::kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    SleepMs(5);
  }
  pid_ = -1;
}

Result<Response> Daemon::Call(const Request& request) const {
  graphalign::ClientOptions options;
  options.socket_path = socket_;
  GA_ASSIGN_OR_RETURN(graphalign::Client client,
                      graphalign::Client::Connect(options));
  return client.Call(request);
}

void Daemon::Send(const Request& gaf1, const std::string& http_target,
                  const std::string& http_body, Sample* s) const {
  s->ok = false;
  s->code = "TRANSPORT";
  if (s->http) {
    int status = 0;
    std::string body;
    if (!HttpPost(http_port_, http_target, http_body, &status, &body)) {
      s->message = "HTTP transport failure";
      return;
    }
    ParseHttpReply(body, status, s);
    return;
  }
  auto r = Call(gaf1);
  if (!r.ok()) {
    s->message = r.status().ToString();
    return;
  }
  s->code = ResponseCodeName(r->code);
  s->message = r->message;
  if (r->code != ResponseCode::kOk) return;
  if (s->kind == Kind::kPut) {
    auto put = graphalign::DecodePutGraphResult(r->body);
    if (!put.ok()) {
      s->message = put.status().ToString();
      return;
    }
    s->put_hash = put->content_hash;
  } else {
    auto align = graphalign::DecodeAlignResult(r->body);
    if (!align.ok()) {
      s->message = align.status().ToString();
      return;
    }
    s->mapping.assign(align->mapping.begin(), align->mapping.end());
  }
  s->ok = true;
}

void BuildRequest(const ServeInputs& in, Kind kind, int index, Request* gaf1,
                  std::string* target, std::string* body) {
  gaf1->client = "perfbench";
  if (kind == Kind::kPut) {
    const graphalign::Graph& g = in.miss[index].g1;
    gaf1->type = RequestType::kPutGraph;
    gaf1->put_graph.g = graphalign::ToWire(g);
    *target = "/v1/graphs";
    *body = GraphJson(g);
    return;
  }
  gaf1->type = RequestType::kAlign;
  graphalign::AlignRequest& a = gaf1->align;
  a.algo = kServeAlgo;
  a.assign = kServeAssign;
  *target = "/v1/align";
  if (kind == Kind::kByHash) {
    const Pair& p = in.by_hash[index % in.by_hash.size()];
    a.by_hash = true;
    a.g1_hash = p.g1.ContentHash();
    a.g2_hash = p.g2.ContentHash();
    *body = AlignHead() + ",\"g1_hash\":\"" +
            graphalign::GraphStore::HashName(a.g1_hash) +
            "\",\"g2_hash\":\"" +
            graphalign::GraphStore::HashName(a.g2_hash) + "\"}";
    return;
  }
  const Pair& p = kind == Kind::kMiss ? in.miss[index] : in.hit;
  a.g1 = graphalign::ToWire(p.g1);
  a.g2 = graphalign::ToWire(p.g2);
  *body = AlignHead() + ",\"g1\":" + GraphJson(p.g1) +
          ",\"g2\":" + GraphJson(p.g2) + "}";
}

std::vector<std::string> WarmDaemon(const Daemon& daemon,
                                    const ServeInputs& in) {
  std::vector<std::string> failures;
  auto send = [&](const std::string& what, const Request& request) {
    Status s = CallOk(daemon, request).status();
    if (!s.ok()) failures.push_back(what + ": " + s.ToString());
  };
  for (const Pair& p : in.by_hash) {
    for (const graphalign::Graph* g : {&p.g1, &p.g2}) {
      Request put;
      put.type = RequestType::kPutGraph;
      put.put_graph.g = graphalign::ToWire(*g);
      send("warm-up put " + p.id, put);
    }
  }
  std::string target, body;
  Request hit;
  BuildRequest(in, Kind::kHit, 0, &hit, &target, &body);
  send("warm-up align hit", hit);
  for (size_t i = 0; i < in.by_hash.size(); ++i) {
    Request by_hash;
    BuildRequest(in, Kind::kByHash, static_cast<int>(i), &by_hash, &target,
                 &body);
    send("warm-up align " + in.by_hash[i].id, by_hash);
  }
  return failures;
}


SessionResult RunSession(const Daemon& daemon, const ServeInputs& in,
                         int clients, int round_size, double seconds,
                         int min_rounds) {
  SessionResult out;
  auto stats0 = ServerStats(daemon);
  auto cache0 = CacheInfo(daemon);
  const int max_rounds = MaxRounds(in, round_size);
  const Clock::time_point origin = Clock::now();
  for (int r = 0; r < max_rounds; ++r) {
    if (r >= min_rounds && SecondsSince(origin) >= seconds) break;
    const size_t base = out.samples.size();
    out.samples.resize(base + round_size);
    std::atomic<int> next{0};
    const Clock::time_point round_start = Clock::now();
    auto client_loop = [&] {
      for (int i = next.fetch_add(1); i < round_size; i = next.fetch_add(1)) {
        const int g = r * round_size + i;
        Sample& s = out.samples[base + i];
        s.kind = static_cast<Kind>(g % kNumKinds);
        s.http = (g / kNumKinds) % 4 == 3;
        s.input = g / kNumKinds;
        Request req;
        std::string target, body;
        BuildRequest(in, s.kind, s.input, &req, &target, &body);
        s.start = SecondsSince(origin);
        daemon.Send(req, target, body, &s);
        s.end = SecondsSince(origin);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop);
    for (std::thread& t : threads) t.join();
    out.round_seconds.push_back(SecondsSince(round_start));
  }
  out.wall_seconds = SecondsSince(origin);
  auto stats1 = ServerStats(daemon);
  auto cache1 = CacheInfo(daemon);
  if (stats0.ok() && stats1.ok()) {
    out.refused = (stats1->busy_rejected + stats1->quota_rejected +
                   stats1->shed) -
                  (stats0->busy_rejected + stats0->quota_rejected +
                   stats0->shed);
  }
  if (cache0.ok() && cache1.ok()) {
    out.cache_hits = cache1->hits - cache0->hits;
    out.cache_misses = cache1->misses - cache0->misses;
  }
  return out;
}

}  // namespace perfbench
