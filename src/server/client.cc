#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace graphalign {

namespace {

void SetTimeouts(int fd, double seconds) {
  if (seconds <= 0.0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Result<Client> Client::Connect(const ClientOptions& options) {
  if (!options.socket_path.empty() && options.port >= 0) {
    return Status::InvalidArgument(
        "client: choose one transport (socket path or port), not both");
  }
  if (options.socket_path.empty() && options.port < 0) {
    return Status::InvalidArgument(
        "client: a Unix socket path or a TCP port is required");
  }
  int fd = -1;
  if (!options.socket_path.empty()) {
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options.socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("client: socket path too long: " +
                                     options.socket_path);
    }
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal("socket() failed: " +
                              std::string(strerror(errno)));
    }
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      const std::string detail = strerror(errno);
      close(fd);
      return Status::NotFound("cannot connect to " + options.socket_path +
                              ": " + detail);
    }
  } else {
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.port));
    if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          "client: host must be a numeric IPv4 address, got " + options.host);
    }
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal("socket() failed: " +
                              std::string(strerror(errno)));
    }
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      const std::string detail = strerror(errno);
      close(fd);
      return Status::NotFound("cannot connect to " + options.host + ":" +
                              std::to_string(options.port) + ": " + detail);
    }
  }
  SetTimeouts(fd, options.timeout_seconds);
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Result<Response> Client::Call(const Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  // The daemon answers some requests without reading them — BUSY at
  // admission, SHUTTING_DOWN at drain, a typed ERROR from a failed worker —
  // and then closes. A send that races that close fails, but the answer is
  // already waiting here, so a failed send still reads whatever is ready.
  const Status sent = WriteFrameToFd(fd_, EncodeRequest(request));
  if (!sent.ok()) {
    struct pollfd ready = {fd_, POLLIN, 0};
    if (poll(&ready, 1, 0) != 1) return sent;
  }
  std::string payload;
  const Result<bool> got_frame = ReadFrameFromFd(fd_, &payload);
  if (!sent.ok() && !(got_frame.ok() && *got_frame)) return sent;
  if (!got_frame.ok()) return got_frame.status();
  if (!*got_frame) {
    return Status::Internal(
        "server closed the connection without responding");
  }
  return DecodeResponse(payload);
}

Result<Response> CallWithRetry(const ClientOptions& options,
                               const Request& request,
                               const RetryPolicy& policy) {
  Backoff backoff(policy);
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  Result<Response> last = Status::Internal("CallWithRetry: no attempt ran");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    auto client = Client::Connect(options);
    if (!client.ok()) {
      last = client.status();
    } else {
      last = client->Call(request);
    }
    bool transient;
    if (last.ok()) {
      // BUSY, SHUTTING_DOWN, and SHED are the daemon's own "try again /
      // try elsewhere" answers; everything else — QUARANTINED included,
      // since quarantine outlives any backoff — is a final verdict.
      transient = last->code == ResponseCode::kBusy ||
                  last->code == ResponseCode::kShuttingDown ||
                  last->code == ResponseCode::kShed;
    } else {
      // Any transport-level failure could be the daemon starting up,
      // restarting, or shedding load by dropping connections.
      transient = true;
    }
    if (!transient || attempt == attempts) return last;
    // A server-provided backoff hint (Retry-After over HTTP) beats the
    // client's jittered schedule: the daemon knows its own queue and quota
    // refill; guessing longer wastes latency, guessing shorter wastes a
    // doomed round trip.
    const uint64_t hint_ms = last.ok() ? last->retry_after_ms : 0;
    SleepForMs(hint_ms > 0 ? hint_ms : backoff.NextDelayMs());
  }
  return last;
}

}  // namespace graphalign
