// The one write loop and the one atomic file publisher.
//
// Every durable file the daemon writes — GST1 graph files (store/gst.h) and
// compacted record logs (common/record_log.h) — is published the same way:
// the bytes go to a temp file in the destination directory, the temp file
// is fsynced, rename(2)d over the final name, and the directory is fsynced.
// A crash at any instant leaves either the old file or the complete new
// one under the final name, never a partial: visibility *is* the rename.
#ifndef GRAPHALIGN_COMMON_ATOMIC_FILE_H_
#define GRAPHALIGN_COMMON_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace graphalign {

class Failpoint;

// Writes all of `bytes` to `fd`, retrying short writes and EINTR. Returns
// false on any other failure, with errno describing it.
bool WriteAll(int fd, std::string_view bytes);

// Optional fault-injection sites inside PublishFile, owned by the caller so
// each publisher keeps its own site names.
struct PublishFailpoints {
  Failpoint* fsync = nullptr;          // Fires as a failed temp-file fsync.
  Failpoint* before_rename = nullptr;  // Fires as a crash in the window
                                       // between fsync and rename: the temp
                                       // file is left behind.
};

// Publishes `bytes` at `path` through the temp file `tmp` (created or
// truncated; callers choose its name so concurrent writers stay apart).
//
// Before the rename every failure returns kUnavailable, removes `tmp`
// (except an injected before_rename crash) and leaves `path` untouched.
// Once the rename has happened the new content is visible whatever the
// directory fsync then returns; a failed directory fsync is still reported
// as kUnavailable, because the publish is atomic but not yet durable.
//
// `published_fd`, when non-null, receives the open read-write fd of the
// published file exactly when the rename happened (the caller owns it), and
// -1 otherwise.
Status PublishFile(const std::string& path, const std::string& tmp,
                   std::string_view bytes, int* published_fd = nullptr,
                   const PublishFailpoints& failpoints = {});

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_ATOMIC_FILE_H_
