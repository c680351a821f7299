// Tests for the process-isolated run executor (common/subprocess.h): real
// crashes, real out-of-memory kills, and real hangs are injected in the
// child and must come back as classified outcomes, never as test-process
// failures.
#include "common/subprocess.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "gtest/gtest.h"

namespace graphalign {
namespace {

TEST(RunStatusNameTest, CoversAllStatuses) {
  EXPECT_STREQ(RunStatusName(RunStatus::kOk), "OK");
  EXPECT_STREQ(RunStatusName(RunStatus::kExit), "EXIT");
  EXPECT_STREQ(RunStatusName(RunStatus::kCrash), "CRASH");
  EXPECT_STREQ(RunStatusName(RunStatus::kOom), "OOM");
  EXPECT_STREQ(RunStatusName(RunStatus::kTimeout), "TIMEOUT");
}

TEST(RunIsolatedTest, CleanExitRoundtripsPayload) {
  auto result = RunIsolated([](int payload_fd) {
    return WritePayload(payload_fd, "forty-two") ? 0 : 1;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOk);
  EXPECT_EQ(result->exit_code, 0);
  ASSERT_TRUE(result->payload_valid);
  EXPECT_EQ(result->payload, "forty-two");
}

TEST(RunIsolatedTest, LargePayloadSurvivesPipeBuffering) {
  // Well past the 64KB default pipe capacity: the parent must drain while
  // the child writes, or this deadlocks and the wall cap kills it.
  const std::string big(4 << 20, 'x');
  SubprocessOptions options;
  options.wall_limit_seconds = 30.0;
  auto result = RunIsolated(
      [&](int payload_fd) { return WritePayload(payload_fd, big) ? 0 : 1; },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->status, RunStatus::kOk) << result->detail;
  ASSERT_TRUE(result->payload_valid);
  EXPECT_EQ(result->payload, big);
}

TEST(RunIsolatedTest, NonzeroExitIsExitNotCrash) {
  auto result = RunIsolated([](int) { return 7; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kExit);
  EXPECT_EQ(result->exit_code, 7);
  EXPECT_FALSE(result->payload_valid);
}

TEST(RunIsolatedTest, AbortIsClassifiedAsCrash) {
  auto result = RunIsolated([](int) -> int { std::abort(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_EQ(result->term_signal, SIGABRT);
  EXPECT_NE(result->detail.find("SIGABRT"), std::string::npos)
      << result->detail;
}

TEST(RunIsolatedTest, SegfaultIsClassifiedAsCrash) {
  auto result = RunIsolated([](int) {
    std::raise(SIGSEGV);
    return 0;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_EQ(result->term_signal, SIGSEGV);
}

TEST(RunIsolatedTest, CrashMidWriteLeavesPayloadInvalid) {
  auto result = RunIsolated([](int payload_fd) {
    // A torn frame: a few header bytes, then death.
    (void)!write(payload_fd, "GA", 2);
    std::raise(SIGSEGV);
    return 0;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_FALSE(result->payload_valid);
}

TEST(RunIsolatedTest, AllocationBeyondLimitIsOom) {
  SubprocessOptions options;
  options.mem_limit_bytes = 192ll << 20;  // 192 MB of headroom.
  options.wall_limit_seconds = 60.0;
  auto result = RunIsolated(
      [](int) {
        // Keep every block reachable and touch each page: an unused `new`
        // is legally elided by the optimizer, and untouched mappings stay
        // lazy.
        constexpr size_t kChunk = 32u << 20;
        std::vector<char*> blocks;
        unsigned long sum = 0;
        for (int i = 0; i < 64; ++i) {
          char* block = new char[kChunk];
          for (size_t off = 0; off < kChunk; off += 4096) block[off] = 1;
          blocks.push_back(block);
          sum += static_cast<unsigned long>(block[kChunk - 1]);
        }
        return sum > 0 ? 0 : 1;  // Unreachable under the limit.
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOom) << result->detail;
}

TEST(RunIsolatedTest, NonCooperativeHangIsKilledAtWallCap) {
  SubprocessOptions options;
  options.wall_limit_seconds = 0.5;
  auto result = RunIsolated(
      [](int) {
        for (volatile uint64_t spin = 0;; spin = spin + 1) {
        }
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_GE(result->wall_seconds, 0.5);
  EXPECT_LT(result->wall_seconds, 30.0);
}

TEST(RunIsolatedTest, CancelHookKillsTheChildAndMarksIt) {
  // The server's watchdog cancels hung children through this hook: once it
  // returns true, the parent's wait loop SIGKILLs the child and the outcome
  // is a kTimeout flagged killed_on_cancel — distinguishable from a
  // wall-cap kill, which the next assertion covers.
  SubprocessOptions options;
  options.wall_limit_seconds = 60.0;  // Far beyond the cancel.
  const auto armed_at = std::chrono::steady_clock::now();
  options.cancel = [armed_at] {
    return std::chrono::steady_clock::now() - armed_at >
           std::chrono::milliseconds(200);
  };
  auto result = RunIsolated(
      [](int) {
        for (volatile uint64_t spin = 0;; spin = spin + 1) {
        }
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_TRUE(result->killed_on_cancel);
  EXPECT_LT(result->wall_seconds, 30.0);  // The 60 s cap never fired.
}

TEST(RunIsolatedTest, WallCapKillIsNotMarkedAsCancel) {
  SubprocessOptions options;
  options.wall_limit_seconds = 0.3;
  options.cancel = [] { return false; };  // Armed but never firing.
  auto result = RunIsolated(
      [](int) {
        for (volatile uint64_t spin = 0;; spin = spin + 1) {
        }
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_FALSE(result->killed_on_cancel);
}

TEST(RunIsolatedTest, CancelThatNeverFiresLeavesCleanRunsUntouched) {
  SubprocessOptions options;
  options.cancel = [] { return false; };
  auto result = RunIsolated([](int payload_fd) {
    return WritePayload(payload_fd, "done") ? 0 : 1;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOk);
  EXPECT_FALSE(result->killed_on_cancel);
}

// The daemon never starts the ParallelFor pool (the server test pins that
// half), so an isolated child builds a pool of its own, owned by the child,
// and runs ParallelFor on real threads. Each block waits (bounded) for a
// second thread to show up, so the count does not depend on scheduling.
TEST(RunIsolatedTest, ChildOfAPoollessParentRunsParallelForOnThreads) {
  ASSERT_EQ(ParallelWorkersStarted(), 0);
  auto result = RunIsolated([](int payload_fd) {
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> ids;
    ParallelFor(
        64,
        [&](int64_t, int64_t) {
          std::unique_lock<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return ids.size() > 1; });
        },
        /*min_work=*/1);
    const std::string report = std::to_string(ParallelThreadCount()) + " " +
                               std::to_string(ids.size());
    return WritePayload(payload_fd, report) ? 0 : 1;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->status, RunStatus::kOk) << result->detail;
  ASSERT_TRUE(result->payload_valid);
  int threads = 0;
  size_t seen = 0;
  ASSERT_EQ(std::sscanf(result->payload.c_str(), "%d %zu", &threads, &seen),
            2);
  if (threads > 1) {
    EXPECT_GT(seen, 1u) << "the child ran ParallelFor inline";
  } else {
    EXPECT_EQ(seen, 1u);
  }
  EXPECT_EQ(ParallelWorkersStarted(), 0);  // The child's pool is its own.
}

TEST(CountProcThreadsTest, SeesAtLeastTheMainThread) {
  auto threads = CountProcThreads();
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_GE(*threads, 1);
}

TEST(ForkAuditTest, UnregisteredThreadMakesRunIsolatedRefuse) {
  std::promise<void> release;
  std::thread foreign([done = release.get_future()] { done.wait(); });
  auto refused = RunIsolated([](int) { return 0; });
  release.set_value();
  foreign.join();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

// Regression: threads started and joined while RunIsolated audits must never
// make it refuse. Registering at the spawn site keeps the registry ahead of
// the kernel when a thread starts; counting only threads that have not begun
// to exit covers the moment after join() returns, while /proc/self/status
// still counts the joined thread.
TEST(ForkAuditTest, ThreadChurnNeverTripsTheAudit) {
  const int baseline = ForkTolerantThreadsRegistered();
  std::atomic<bool> stop{false};
  std::atomic<int> churned{0};
  ForkTolerantThread churner([&stop, &churned] {
    while (!stop.load()) {
      ForkTolerantThread t([] {});
      t.join();
      churned.fetch_add(1);
    }
  });
  Status failure;
  for (int i = 0; i < 200 && failure.ok(); ++i) {
    auto run = RunIsolated([](int) { return 0; });
    if (!run.ok()) {
      failure = run.status();
    } else if (run->status != RunStatus::kOk) {
      failure = Status::Internal(std::string("child ended ") +
                                 RunStatusName(run->status));
    }
  }
  stop.store(true);
  churner.join();
  EXPECT_TRUE(failure.ok()) << failure.ToString();
  EXPECT_GT(churned.load(), 0);
  EXPECT_EQ(ForkTolerantThreadsRegistered(), baseline);
}

}  // namespace
}  // namespace graphalign
