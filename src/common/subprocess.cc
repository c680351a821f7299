#include "common/subprocess.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

#include "common/atomic_file.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace graphalign {

namespace {

// Payload frames are "GAPL" + little-endian u64 length + bytes. The magic
// lets the parent distinguish "child wrote nothing" from "child wrote
// garbage"; the length lets it detect a crash mid-write.
constexpr char kPayloadMagic[4] = {'G', 'A', 'P', 'L'};

void SetAddressSpaceLimit(int64_t headroom_bytes) {
  // RLIMIT_AS counts every mapping — the binary, shared libraries, and the
  // 8 MiB stacks of pool threads the child inherited from the parent — so an
  // absolute cap of a few hundred MB could be spent before the workload
  // allocates a byte. Budget on top of the current VmSize instead; when
  // /proc is unavailable fall back to the absolute value.
  int64_t base = CurrentVmBytes();
  const rlim_t cap = static_cast<rlim_t>((base > 0 ? base : 0) + headroom_bytes);
  struct rlimit rl;
  rl.rlim_cur = cap;
  rl.rlim_max = cap;
  setrlimit(RLIMIT_AS, &rl);
}

void DrainPipe(int fd, std::string* raw) {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw->append(buf, static_cast<size_t>(n));
      continue;
    }
    return;  // 0 = EOF, -1 = EAGAIN or error; either way stop for now.
  }
}

// Extracts one complete frame from the raw pipe bytes.
bool ParsePayload(const std::string& raw, std::string* payload) {
  if (raw.size() < sizeof(kPayloadMagic) + sizeof(uint64_t)) return false;
  if (std::memcmp(raw.data(), kPayloadMagic, sizeof(kPayloadMagic)) != 0) {
    return false;
  }
  uint64_t len = 0;
  std::memcpy(&len, raw.data() + sizeof(kPayloadMagic), sizeof(len));
  const size_t header = sizeof(kPayloadMagic) + sizeof(uint64_t);
  if (raw.size() < header + len) return false;
  payload->assign(raw, header, len);
  return true;
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal";
  }
}

}  // namespace

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "OK";
    case RunStatus::kExit: return "EXIT";
    case RunStatus::kCrash: return "CRASH";
    case RunStatus::kOom: return "OOM";
    case RunStatus::kTimeout: return "TIMEOUT";
  }
  return "UNKNOWN";
}

namespace {

// PF_EXITING (include/linux/sched.h): set at the very start of do_exit(),
// before the thread releases its memory map and wakes its joiner.
constexpr unsigned kPfExiting = 0x4;

// Whether /proc/self/task/<tid>/stat shows a thread that has not begun to
// exit. A thread that vanished between readdir and open is not live.
bool TaskIsLive(const char* tid) {
  const std::string path = std::string("/proc/self/task/") + tid + "/stat";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[1024];
  const bool read = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  if (!read) return false;
  // "tid (comm) state ppid pgrp session tty_nr tpgid flags ..."; comm may
  // hold spaces and parentheses, so parse from the last ')'.
  const char* rparen = std::strrchr(line, ')');
  char state = 0;
  unsigned flags = 0;
  if (rparen == nullptr ||
      std::sscanf(rparen + 1, " %c %*d %*d %*d %*d %*d %u", &state,
                  &flags) != 2) {
    return true;  // Unparseable: count it, the conservative answer.
  }
  return (flags & kPfExiting) == 0;
}

// Guards the registry, and holds it still while the audit compares it with
// the kernel's view.
std::mutex g_registry_mu;
int g_fork_tolerant_threads = 0;  // Guarded by g_registry_mu.

void AddForkTolerant(int delta) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  g_fork_tolerant_threads += delta;
}

}  // namespace

Result<int> CountProcThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return Status::Internal("/proc/self/task unavailable");
  }
  int threads = 0;
  while (const struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    if (TaskIsLive(entry->d_name)) ++threads;
  }
  closedir(dir);
  if (threads <= 0) {
    return Status::Internal("no live thread listed in /proc/self/task");
  }
  return threads;
}

ForkTolerantThread::ForkTolerantThread(std::function<void()> body) {
  AddForkTolerant(1);
  try {
    thread_ = std::thread(std::move(body));
  } catch (...) {
    AddForkTolerant(-1);
    throw;
  }
}

ForkTolerantThread::~ForkTolerantThread() { join(); }

void ForkTolerantThread::join() {
  if (!thread_.joinable()) return;
  thread_.join();
  AddForkTolerant(-1);
}

int ForkTolerantThreadsRegistered() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  return g_fork_tolerant_threads;
}

bool WritePayload(int fd, const std::string& bytes) {
  std::string frame(kPayloadMagic, sizeof(kPayloadMagic));
  const uint64_t len = bytes.size();
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(bytes);
  return WriteAll(fd, frame);
}

Result<SubprocessResult> RunIsolated(
    const std::function<int(int payload_fd)>& body,
    const SubprocessOptions& options) {
  // Refuse to fork when threads we do not know about exist: a lock held by
  // one of them at fork time would be held forever in the child. The pool
  // workers are accounted for because ParallelFor runs inline after fork;
  // ForkTolerantThreads have made the same promise. The kernel is read
  // first and the registry second, with the registry held still: a thread
  // counted live was registered before it started and stays registered
  // until it has been joined, and the pool count only grows.
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto threads = CountProcThreads();
    const int known = 1 + ParallelWorkersStarted() + g_fork_tolerant_threads;
    if (threads.ok() && *threads > known) {
      return Status::FailedPrecondition(
          "RunIsolated: " + std::to_string(*threads) +
          " threads running but only " + std::to_string(known) +
          " (main + pool workers + registered fork-tolerant threads) are "
          "known fork-tolerant");
    }
  }

  GA_FAILPOINT_STATUS(
      "subprocess.fork.error",
      Status::Unavailable("fork() failed: Resource temporarily unavailable"));

  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Internal("pipe() failed: " + std::string(strerror(errno)));
  }
  // Buffered stdio shared with the child would otherwise be flushed twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork() failed: " + std::string(strerror(errno)));
  }

  if (pid == 0) {
    // Child. Exit via _exit in every path: the parent owns atexit state.
    close(fds[0]);
    std::set_new_handler(+[]() { _exit(kOomExitCode); });
    struct rlimit no_core = {0, 0};
    setrlimit(RLIMIT_CORE, &no_core);  // A crashing cell must not dump GBs.
    if (options.mem_limit_bytes > 0) {
      SetAddressSpaceLimit(options.mem_limit_bytes);
    }
    // Child-side fault site: crash/oom modes die here, inside the sandbox,
    // exercising the parent's containment and classification.
    if (GA_FAILPOINT_FIRED("subprocess.child.fault")) _exit(1);
    const int rc = body(fds[1]);
    std::fflush(stdout);
    std::fflush(stderr);
    close(fds[1]);
    _exit(rc);
  }

  // Parent: drain the payload pipe while waiting, so a chatty child never
  // blocks on a full pipe, and enforce the wall-clock cap with SIGKILL.
  close(fds[1]);
  fcntl(fds[0], F_SETFL, O_NONBLOCK);
  const Deadline hard_cap = options.wall_limit_seconds > 0
                                ? Deadline::AfterSeconds(options.wall_limit_seconds)
                                : Deadline::Infinite();
  WallTimer timer;
  std::string raw;
  bool killed_on_timeout = false;
  bool killed_on_cancel = false;
  int wstatus = 0;
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, /*timeout_ms=*/50) > 0) DrainPipe(fds[0], &raw);
    const pid_t w = waitpid(pid, &wstatus, WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) {
      close(fds[0]);
      return Status::Internal("waitpid() failed: " +
                              std::string(strerror(errno)));
    }
    if (!killed_on_timeout && hard_cap.Expired()) {
      kill(pid, SIGKILL);
      killed_on_timeout = true;
    }
    if (!killed_on_timeout && options.cancel && options.cancel()) {
      kill(pid, SIGKILL);
      killed_on_timeout = true;
      killed_on_cancel = true;
    }
  }
  DrainPipe(fds[0], &raw);  // Bytes written before the child exited.
  close(fds[0]);

  SubprocessResult result;
  result.wall_seconds = timer.Seconds();
  result.payload_valid = ParsePayload(raw, &result.payload);
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    result.exit_code = code;
    if (code == 0) {
      result.status = RunStatus::kOk;
      result.detail = "ok";
    } else if (code == kOomExitCode) {
      result.status = RunStatus::kOom;
      result.detail = "allocation failed under the memory limit";
    } else {
      result.status = RunStatus::kExit;
      result.detail = "exit code " + std::to_string(code);
    }
  } else if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    result.term_signal = sig;
    if (sig == SIGKILL && killed_on_timeout) {
      result.status = RunStatus::kTimeout;
      result.killed_on_cancel = killed_on_cancel;
      result.detail = killed_on_cancel
                          ? "killed by the caller's cancellation hook"
                          : "killed after exceeding the wall-clock cap";
    } else if (sig == SIGKILL) {
      // Nobody else SIGKILLs the child; the kernel OOM-killer does.
      result.status = RunStatus::kOom;
      result.detail = "killed (likely by the kernel OOM killer)";
    } else {
      result.status = RunStatus::kCrash;
      result.detail = "killed by signal " + std::to_string(sig) + " (" +
                      SignalName(sig) + ")";
    }
  } else {
    result.status = RunStatus::kCrash;
    result.detail = "child ended with unexpected wait status";
  }
  return result;
}

}  // namespace graphalign
