// The one durable record log: CRC32C-framed, append-only, replayed at open.
//
// Both of the daemon's durable logs are RecordLogs that differ only in their
// RecordLogFormat: the result-cache log (server/server.h, "GAR1", DESIGN.md
// §14) and the job journal (jobs/manager.h, "GAJ1", DESIGN.md §17).
//
// Record layout (all integers little-endian):
//
//   magic (4 bytes) | u32 payload_len | u32 crc32c(payload) | payload
//
// The payload is opaque to the log. Records are never rewritten in place,
// so the only damage a crash can leave behind is a torn record at the tail
// (partial header or body) or, with bit rot, a record whose CRC no longer
// matches. Replay rules, in order, at every record boundary:
//
//   * clean EOF                       -> done
//   * partial header / partial body /
//     bad magic / zero or oversized
//     length                          -> torn or corrupt tail: truncate the
//                                        file back to the last good record
//                                        and stop (a crash mid-append wrote
//                                        it; nothing after it is sound)
//   * CRC mismatch on a record whose
//     framing is intact               -> skip just that record and continue
//                                        (bit rot is local; later records
//                                        framed correctly are independent)
//
// Replay therefore never fails on log content: the worst corrupt log yields
// an empty replay, not an error. Growth is bounded by Compact, which
// rewrites the live records and publishes them atomically
// (common/atomic_file.h), so a crash mid-compaction keeps the old log whole
// and leaves at most one stale `<file>.tmp` behind.
//
// Append writes without fsync; callers that promise durability per record
// (the job journal) follow it with Sync. Failpoints, named after the
// format's prefix P (tools/run_chaos.sh and the chaos suites arm them):
//   P.append.error   - the append is dropped as if write() failed
//   P.append.enospc  - the append is dropped as if the disk were full:
//                      counted and kUnavailable, never corruption
//   P.append.torn    - a deliberately truncated record is written,
//                      simulating a crash mid-append
//   P.replay.error   - Open() fails, simulating an unreadable log
#ifndef GRAPHALIGN_COMMON_RECORD_LOG_H_
#define GRAPHALIGN_COMMON_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace graphalign {

class Failpoint;

// What distinguishes one log from another. The views must name storage that
// outlives every log opened with the format (the formats are constants).
struct RecordLogFormat {
  std::string_view magic;             // Exactly 4 bytes, e.g. "GAR1".
  std::string_view file_name;         // The log file inside its directory.
  uint32_t max_payload = 0;           // Larger records are refused/corrupt.
  std::string_view failpoint_prefix;  // e.g. "server.cache".
};

class RecordLog {
 public:
  struct ReplayStats {
    uint64_t replayed = 0;         // Records delivered to the callback.
    uint64_t crc_skipped = 0;      // Intact-framing records with a bad CRC.
    uint64_t truncated_bytes = 0;  // Torn/corrupt tail bytes dropped.
  };

  // Opens (creating if needed) `dir`/format.file_name, replays every good
  // record through `on_record`, truncates any torn tail, and returns a log
  // ready for appends. `stats` (optional) receives the replay accounting.
  // Fails only when the directory or file cannot be created or read at all.
  static Result<std::unique_ptr<RecordLog>> Open(
      const std::string& dir, const RecordLogFormat& format,
      const std::function<void(std::string_view payload)>& on_record,
      ReplayStats* stats = nullptr);

  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  // Appends one record (no fsync). Thread-safe. An empty or oversized
  // payload is InvalidArgument. A write failure is counted (append_errors)
  // and returned as kUnavailable; the log stays open for later appends —
  // durability degrades, service does not.
  Status Append(std::string_view payload);

  // fsyncs the log: makes every record that reached the kernel durable.
  Status Sync();

  // Rewrites the log to hold exactly `live` records, in order, dropping
  // everything else (superseded records, CRC-skipped residue). The records
  // go to `<file>.tmp` and are published with PublishFile; a failure before
  // the rename leaves the old log and fd working unchanged. Once the rename
  // has happened appends go to the new file, even if the directory fsync
  // then fails (that failure is still returned). Thread-safe against Append.
  Status Compact(const std::vector<std::string>& live);

  // Current byte size of the log on disk (0 if unusable).
  uint64_t log_bytes() const;

  uint64_t append_errors() const;

 private:
  RecordLog(const RecordLogFormat& format, int fd, std::string path);

  std::string Frame(std::string_view payload) const;

  const RecordLogFormat format_;
  const std::string path_;
  Failpoint& append_error_;
  Failpoint& append_enospc_;
  Failpoint& append_torn_;
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t append_errors_ = 0;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_RECORD_LOG_H_
