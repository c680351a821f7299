#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace graphalign {

namespace {

bool Fires(Failpoint* fp) {
  return fp != nullptr && fp->armed() && fp->FireBool();
}

std::string ErrnoText(int err) { return std::string(strerror(err)); }

std::string ParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Status PublishFile(const std::string& path, const std::string& tmp,
                   std::string_view bytes, int* published_fd,
                   const PublishFailpoints& failpoints) {
  if (published_fd != nullptr) *published_fd = -1;
  const int fd = open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot create " + tmp + ": " +
                               ErrnoText(errno));
  }
  if (!WriteAll(fd, bytes)) {
    const int err = errno;
    close(fd);
    unlink(tmp.c_str());
    return Status::Unavailable("write to " + tmp + " failed: " +
                               ErrnoText(err));
  }
  if (Fires(failpoints.fsync) || fsync(fd) != 0) {
    close(fd);
    unlink(tmp.c_str());
    return Status::Unavailable("fsync of " + tmp + " failed");
  }
  // The crash window: temp durable, final name not yet published. The
  // injected variant returns here without unlinking the temp — exactly the
  // garbage a real crash leaves behind.
  if (failpoints.before_rename != nullptr &&
      failpoints.before_rename->armed()) {
    Status crashed = failpoints.before_rename->Fire(Status::Unavailable(
        "crash before rename (injected); temp left behind"));
    if (!crashed.ok()) {
      close(fd);
      return crashed;
    }
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    close(fd);
    unlink(tmp.c_str());
    return Status::Unavailable("rename to " + path + " failed: " +
                               ErrnoText(err));
  }
  // Published. From here on the fd is the live file whatever happens.
  if (published_fd != nullptr) {
    *published_fd = fd;
  } else {
    close(fd);
  }
  // fsync the directory so the rename itself survives power loss.
  const std::string dir = ParentDir(path);
  const int dfd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Unavailable("cannot open directory " + dir +
                               " for fsync: " + ErrnoText(errno));
  }
  if (fsync(dfd) != 0) {
    const int err = errno;
    close(dfd);
    return Status::Unavailable("directory fsync failed: " + ErrnoText(err));
  }
  close(dfd);
  return Status::Ok();
}

}  // namespace graphalign
