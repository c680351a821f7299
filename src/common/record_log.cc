#include "common/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/wire.h"

namespace graphalign {

namespace {

constexpr size_t kMagicBytes = 4;
constexpr size_t kHeaderBytes = kMagicBytes + 2 * sizeof(uint32_t);

std::string ErrnoText(int err) { return std::string(strerror(err)); }

Failpoint& Site(const RecordLogFormat& format, const char* suffix) {
  return Failpoint::Get(std::string(format.failpoint_prefix) + suffix);
}

// Reads the whole log into memory. Logs hold request-sized records; at
// service-realistic sizes this is megabytes, and replay happens once per
// daemon start.
Result<std::string> ReadWholeFile(int fd, const std::string& path) {
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return bytes;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(path + ": read failed: " + ErrnoText(errno));
    }
    bytes.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

RecordLog::RecordLog(const RecordLogFormat& format, int fd, std::string path)
    : format_(format),
      path_(std::move(path)),
      append_error_(Site(format, ".append.error")),
      append_enospc_(Site(format, ".append.enospc")),
      append_torn_(Site(format, ".append.torn")),
      fd_(fd) {}

RecordLog::~RecordLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

std::string RecordLog::Frame(std::string_view payload) const {
  ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32c(payload));
  std::string record(format_.magic);
  record += header.Take();
  record.append(payload);
  return record;
}

Result<std::unique_ptr<RecordLog>> RecordLog::Open(
    const std::string& dir, const RecordLogFormat& format,
    const std::function<void(std::string_view payload)>& on_record,
    ReplayStats* stats) {
  GA_CHECK(format.magic.size() == kMagicBytes);
  Failpoint& replay_error = Site(format, ".replay.error");
  if (replay_error.armed()) {
    Status injected = replay_error.Fire(Status::Internal(
        std::string(format.file_name) + " unreadable (injected)"));
    if (!injected.ok()) return injected;
  }
  if (dir.empty()) {
    return Status::InvalidArgument(std::string(format.file_name) +
                                   ": directory path is empty");
  }
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create " + dir + ": " + ErrnoText(errno));
  }
  const std::string path = dir + "/" + std::string(format.file_name);
  const int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + ": " + ErrnoText(errno));
  }
  auto bytes = ReadWholeFile(fd, path);
  if (!bytes.ok()) {
    close(fd);
    return bytes.status();
  }

  ReplayStats local;
  size_t pos = 0;       // Cursor into the log.
  size_t good_end = 0;  // End offset of the last well-framed record.
  const std::string_view log = *bytes;
  while (pos < log.size()) {
    const size_t remaining = log.size() - pos;
    if (remaining < kHeaderBytes) break;  // Partial header: torn tail.
    if (log.substr(pos, kMagicBytes) != format.magic) {
      break;  // Tail garbage; no trustworthy boundary past this point.
    }
    uint32_t len = 0, crc = 0;
    ByteReader header(log.substr(pos + kMagicBytes, 2 * sizeof(uint32_t)));
    header.U32(&len);
    header.U32(&crc);
    if (len == 0 || len > format.max_payload) break;
    if (remaining < kHeaderBytes + len) break;  // Partial body.
    const std::string_view payload = log.substr(pos + kHeaderBytes, len);
    pos += kHeaderBytes + len;
    good_end = pos;
    if (Crc32c(payload) != crc) {
      // Framing is intact, content is not: local damage, skip just this
      // record and keep replaying the rest.
      ++local.crc_skipped;
      continue;
    }
    if (on_record) on_record(payload);
    ++local.replayed;
  }
  local.truncated_bytes = log.size() - good_end;
  if (local.truncated_bytes > 0 &&
      ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
    const int err = errno;
    close(fd);
    return Status::Internal("cannot truncate the torn tail of " + path +
                            ": " + ErrnoText(err));
  }
  // Future appends start at the (possibly new) end: a record boundary.
  if (lseek(fd, 0, SEEK_END) < 0) {
    const int err = errno;
    close(fd);
    return Status::Internal("cannot seek " + path + ": " + ErrnoText(err));
  }
  if (stats != nullptr) *stats = local;
  return std::unique_ptr<RecordLog>(new RecordLog(format, fd, path));
}

Status RecordLog::Append(std::string_view payload) {
  if (payload.empty() || payload.size() > format_.max_payload) {
    return Status::InvalidArgument(path_ + ": bad record size " +
                                   std::to_string(payload.size()));
  }
  const std::string record = Frame(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    ++append_errors_;
    return Status::FailedPrecondition(path_ + ": not open");
  }
  if (append_error_.armed() && append_error_.FireBool()) {
    ++append_errors_;
    return Status::Unavailable(path_ + ": append failed (injected)");
  }
  if (append_enospc_.armed() && append_enospc_.FireBool()) {
    // Disk full is a transient-environment failure: the record is dropped
    // and counted like any other failed write, never treated as corruption.
    ++append_errors_;
    return Status::Unavailable(path_ + ": append failed: " +
                               ErrnoText(ENOSPC) + " (injected)");
  }
  if (append_torn_.armed() && append_torn_.FireBool()) {
    // Simulate dying mid-append: header plus half the payload reach disk.
    const size_t torn = kHeaderBytes + (record.size() - kHeaderBytes) / 2;
    (void)WriteAll(fd_, std::string_view(record).substr(0, torn));
    ++append_errors_;
    return Status::Unavailable(path_ + ": append torn (injected)");
  }
  if (!WriteAll(fd_, record)) {
    const int err = errno;
    ++append_errors_;
    // ENOSPC/EDQUOT are transient-environment failures, never corruption:
    // the record simply did not commit.
    return Status::Unavailable(path_ + ": append failed: " + ErrnoText(err));
  }
  return Status::Ok();
}

Status RecordLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition(path_ + ": not open");
  if (fsync(fd_) != 0) {
    return Status::Unavailable(path_ + ": fsync failed: " + ErrnoText(errno));
  }
  return Status::Ok();
}

Status RecordLog::Compact(const std::vector<std::string>& live) {
  std::string fresh;
  for (const std::string& payload : live) fresh += Frame(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition(path_ + ": not open");
  int published = -1;
  Status s = PublishFile(path_, path_ + ".tmp", fresh, &published);
  if (published >= 0) {
    // The rename happened: the old inode is unlinked, so appends must go
    // to the published file whatever the directory fsync said.
    close(fd_);
    fd_ = published;
  }
  return s;
}

uint64_t RecordLog::log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return 0;
  struct stat st;
  if (fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t RecordLog::append_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_errors_;
}

}  // namespace graphalign
