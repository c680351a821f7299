// Durable async job table: the state machine over the journal (DESIGN.md §17).
//
// A job is an opaque spec (the server encodes an AlignRequest into it; this
// layer never looks inside) with a content-derived id and an optional client
// idempotency key. States:
//
//             +----------------------------- cancel ----------------+
//             v                                                      |
//   ACCEPTED ---claim---> RUNNING ---done--------> DONE              |
//      ^                    |  \----failed-------> FAILED            |
//      |                    |   \---quarantined--> QUARANTINED       |
//      |                    \-----retryable----+                     |
//      |                       attempts < max  |  attempts == max    |
//      +---------------------------------------+--------> FAILED    |
//                                                                    v
//                                                               CANCELLED
//
// Every transition is journaled *before* it takes effect — appended to the
// GAJ1 record log (kJobJournalFormat, common/record_log.h) and fsynced —
// so replay after `kill -9` reconstructs the table exactly: DONE jobs keep
// their results, RUNNING jobs go back to ACCEPTED (counted as recovered)
// unless their attempts are exhausted — then they become a typed FAILED,
// never a retry storm. Terminal states are absorbing: completions arriving
// for a cancelled job are ignored, cancel of a finished job is refused.
//
// Idempotency: the content id is a 64-bit hash of the spec bytes, so
// resubmitting identical content returns the existing job (existing=true)
// without re-executing — including DONE jobs, whose stored result is served
// again. An idempotency key pins that contract across clients: reusing a
// key with *different* content is refused (FailedPrecondition → CONFLICT)
// rather than silently aliased. FAILED and CANCELLED jobs are the one
// exception: resubmitting them starts a fresh attempt cycle.
#ifndef GRAPHALIGN_JOBS_MANAGER_H_
#define GRAPHALIGN_JOBS_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/record_log.h"
#include "common/status.h"

namespace graphalign {

// Journal records beyond this payload size are refused at append and
// treated as corruption at replay. Sized to hold an inline graph-pair spec
// (the GAF1 frame cap) plus event framing.
inline constexpr uint32_t kMaxJournalPayload = (64u << 20) + 4096;

// The job journal: `<dir>/jobs.journal`, one event per record. Jobs are
// heavyweight (each execution forks an isolated child), so one fsync per
// transition is noise next to the work it makes durable — and it is what
// turns "accepted" into a promise that survives the daemon.
inline constexpr RecordLogFormat kJobJournalFormat{
    "GAJ1", "jobs.journal", kMaxJournalPayload, "jobs.journal"};

enum class JobState : uint32_t {
  kAccepted = 0,     // Journaled, waiting for a runner.
  kRunning = 1,      // Claimed by a runner; an execution is in flight.
  kDone = 2,         // Finished; result bytes stored in the journal.
  kFailed = 3,       // Terminal failure (typed via terminal_code).
  kQuarantined = 4,  // Input quarantined; resubmission returns this verdict.
  kCancelled = 5,    // Client-cancelled; late completions are ignored.
};

// "ACCEPTED", "RUNNING", ... — the wire/state names used by protocol and
// gateway JSON. Unknown values name as "UNKNOWN".
const char* JobStateName(JobState state);

inline bool JobStateTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kQuarantined || s == JobState::kCancelled;
}

// Content-derived job id: FNV-1a over the spec bytes (never 0; 0 means "no
// job"). Two submissions with byte-identical specs are the same job.
uint64_t JobContentId(std::string_view spec_bytes);

struct JobRecord {
  uint64_t job_id = 0;
  std::string idem_key;
  std::string spec_bytes;
  JobState state = JobState::kAccepted;
  uint32_t attempts = 0;      // Executions started (claims), incl. recovered.
  uint32_t max_attempts = 1;
  uint64_t submitted_unix_ms = 0;
  uint64_t updated_unix_ms = 0;  // Timestamp of the latest transition.
  uint32_t terminal_code = 0;    // Opaque failure code (FAILED/QUARANTINED).
  std::string message;           // Human-readable outcome detail.
  std::string result_bytes;      // DONE only; opaque to this layer.
};

struct JobManagerOptions {
  std::string dir;            // Journal directory (required).
  uint32_t max_attempts = 3;  // Executions per job before typed FAILED.
  uint64_t ttl_seconds = 24 * 3600;  // Terminal-job retention before Gc.
  uint64_t compact_bytes = 4u << 20;  // Gc compacts once the log exceeds this.
  // terminal_code stamped on jobs whose attempts are exhausted (at recovery
  // or retryable completion). Opaque here; the server passes its CRASH code.
  uint32_t exhausted_terminal_code = 0;
};

struct JobManagerStats {
  uint64_t submitted = 0;   // Fresh submissions journaled.
  uint64_t deduped = 0;     // Submissions answered from an existing job.
  uint64_t done = 0;        // Transitions into DONE.
  uint64_t failed = 0;      // Transitions into FAILED or QUARANTINED.
  uint64_t cancelled = 0;   // Transitions into CANCELLED.
  uint64_t executions = 0;  // Claims handed to runners.
  uint64_t recovered = 0;   // RUNNING jobs re-enqueued at startup replay.
  uint64_t pending = 0;     // Jobs currently ACCEPTED or RUNNING.
  uint64_t gced = 0;        // Terminal jobs expired by Gc.
  uint64_t journal_bytes = 0;
  uint64_t journal_append_errors = 0;
  uint64_t replay_events = 0;          // Journal records applied at Open.
  uint64_t replay_crc_skipped = 0;     // Bad-CRC records skipped at Open.
  uint64_t replay_truncated_bytes = 0;  // Torn tail dropped at Open.
  uint64_t replay_bad_events = 0;  // Intact records that failed to decode or
                                   // named a job with no submit record.
};

class JobManager {
 public:
  // One submission's outcome: the job's current record plus whether it was
  // deduplicated onto a previously submitted job.
  struct SubmitOutcome {
    JobRecord record;
    bool existing = false;
  };

  // Opens the journal under options.dir, replays it, and applies the
  // recovery rules (RUNNING → re-enqueue or exhausted-FAILED, journaled
  // with `now_ms` timestamps). Fails only when the journal file itself is
  // unusable, never because of its content.
  static Result<std::unique_ptr<JobManager>> Open(
      const JobManagerOptions& options, uint64_t now_ms);

  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Submits (or deduplicates) a job. Errors: InvalidArgument on empty spec,
  // FailedPrecondition when `idem_key` is already bound to different
  // content, Unavailable when the journal append fails (the job is NOT
  // accepted — durability is the contract, so an unjournaled job is
  // refused, not half-kept).
  Result<SubmitOutcome> Submit(const std::string& idem_key,
                               std::string spec_bytes, uint64_t now_ms);

  // Snapshot of one job / all jobs. NotFound when the id was never
  // submitted or has been GC'd. List() omits spec/result bytes.
  Result<JobRecord> Get(uint64_t job_id) const;
  std::vector<JobRecord> List() const;

  // Blocks until a job can be claimed or Stop() is called (false). On
  // success the job has transitioned ACCEPTED → RUNNING (journaled, attempt
  // counted), *out holds its record (spec included), and *cancel is a flag
  // the runner must poll: it flips when the client cancels the job.
  bool ClaimNext(JobRecord* out,
                 std::shared_ptr<std::atomic<bool>>* cancel);

  // Completions, called by the runner for a job it claimed. All are no-ops
  // (Ok) when the job is no longer RUNNING — a cancel won the race and the
  // result is discarded. CompleteRetryable re-enqueues the job unless its
  // attempts are exhausted, in which case it becomes FAILED with the
  // options' exhausted_terminal_code.
  Status CompleteDone(uint64_t job_id, std::string result_bytes,
                      uint64_t now_ms);
  Status CompleteFailed(uint64_t job_id, uint32_t terminal_code,
                        const std::string& message, bool quarantined,
                        uint64_t now_ms);
  Status CompleteRetryable(uint64_t job_id, const std::string& message,
                           uint64_t now_ms);

  // Cancels a job: ACCEPTED leaves the queue, RUNNING gets its cancel flag
  // flipped (the in-flight child is killed by the runner's poll) and any
  // late completion is ignored. NotFound for unknown ids,
  // FailedPrecondition for jobs already terminal.
  Result<JobRecord> Cancel(uint64_t job_id, uint64_t now_ms);

  // Expires terminal jobs older than ttl_seconds and compacts the journal
  // when it has grown past compact_bytes (or anything was expired).
  Status Gc(uint64_t now_ms);

  // fsyncs the journal: the explicit seal for SIGTERM drain.
  Status Seal();

  // Wakes every ClaimNext waiter to return false. Idempotent.
  void Stop();

  JobManagerStats Stats() const;

 private:
  explicit JobManager(JobManagerOptions options);

  // Journal replay: decodes one event and applies it (mu_ held).
  void ApplyEvent(std::string_view payload);
  Status Journal(std::string_view event);  // Append, then fsync.
  Status JournalState(const JobRecord& r);

  const JobManagerOptions options_;
  std::unique_ptr<RecordLog> journal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::unordered_map<uint64_t, JobRecord> jobs_;
  std::unordered_map<std::string, uint64_t> idem_;  // key → job_id
  std::deque<uint64_t> queue_;                      // FIFO of ACCEPTED ids.
  std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>> cancels_;

  // Counters (mu_ held). Replay stats are filled once at Open.
  uint64_t submitted_ = 0, deduped_ = 0, done_ = 0, failed_ = 0;
  uint64_t cancelled_ = 0, executions_ = 0, recovered_ = 0, gced_ = 0;
  uint64_t replay_bad_events_ = 0;
  RecordLog::ReplayStats replay_stats_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_JOBS_MANAGER_H_
