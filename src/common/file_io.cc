#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/strutil.h"

namespace ode {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(
      StrFormat("%s '%s': %s", op, path.c_str(), std::strerror(errno)));
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  Status status = Status::OK();
  if (::fsync(fd) != 0) status = Errno("fsync dir", dir);
  ::close(fd);
  return status;
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const std::string& tmp_path) {
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", tmp_path);
  Status status = Status::OK();
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Errno("write", tmp_path);
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", tmp_path);
  ::close(fd);
  ODE_RETURN_IF_ERROR(status);
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::Internal(StrFormat("rename '%s' -> '%s': %s",
                                      tmp_path.c_str(), path.c_str(),
                                      std::strerror(errno)));
  }
  const size_t slash = path.rfind('/');
  return FsyncDir(slash == std::string::npos ? "."
                  : slash == 0               ? "/"
                                             : path.substr(0, slash));
}

}  // namespace ode
