//===- support/Io.cpp -----------------------------------------*- C++ -*-===//

#include "support/Io.h"

#include "support/Fault.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace deept;
using namespace deept::support;

namespace {

void fill(Error *Err, ErrorCode C, const std::string &Site,
          const std::string &Msg) {
  if (Err)
    *Err = Error(C, Site, Msg + ": " + std::strerror(errno));
}

/// write(2) everything, retrying on EINTR and short writes.
bool writeAll(int Fd, const char *Data, size_t N) {
  while (N > 0) {
    ssize_t W = ::write(Fd, Data, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

} // namespace

bool deept::support::atomicWriteFile(const std::string &Path,
                                     const std::string &Data, Error *Err) {
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0 || DEEPT_FAULT_IO_FAIL("io.atomic_open")) {
    if (Fd >= 0)
      ::close(Fd);
    fill(Err, ErrorCode::IoError, "io.atomic_write",
         "cannot create '" + Tmp + "'");
    return false;
  }
  bool Ok = writeAll(Fd, Data.data(), Data.size()) &&
            !DEEPT_FAULT_IO_FAIL("io.atomic_write");
  // fsync before rename: the rename must not become visible before the
  // data it points at.
  Ok = Ok && ::fsync(Fd) == 0;
  Ok = ::close(Fd) == 0 && Ok;
  Ok = Ok && ::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    ::unlink(Tmp.c_str());
    fill(Err, ErrorCode::IoError, "io.atomic_write",
         "cannot write '" + Path + "'");
    return false;
  }
  return true;
}

bool AppendFile::open(const std::string &P, Error *Err) {
  close();
  Fd = ::open(P.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0 || DEEPT_FAULT_IO_FAIL("store.open")) {
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
    fill(Err, ErrorCode::StoreCorrupt, "store.open",
         "cannot open '" + P + "' for append");
    return false;
  }
  Path = P;
  return true;
}

void AppendFile::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

bool AppendFile::append(const std::string &Record, bool Fsync, Error *Err) {
  if (Fd < 0)
    return false;
  if (DEEPT_FAULT_IO_FAIL("store.write") ||
      !writeAll(Fd, Record.data(), Record.size())) {
    fill(Err, ErrorCode::IoError, "store.write",
         "short write to '" + Path + "'");
    return false;
  }
  if (Fsync && ::fsync(Fd) != 0) {
    fill(Err, ErrorCode::IoError, "store.fsync",
         "fsync of '" + Path + "' failed");
    return false;
  }
  return true;
}

bool deept::support::truncateFile(const std::string &Path, uint64_t Size,
                                  Error *Err) {
  if (::truncate(Path.c_str(), static_cast<off_t>(Size)) != 0) {
    fill(Err, ErrorCode::IoError, "io.truncate",
         "cannot truncate '" + Path + "'");
    return false;
  }
  return true;
}

bool deept::support::fileSize(const std::string &Path, uint64_t &Size) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return false;
  Size = static_cast<uint64_t>(St.st_size);
  return true;
}
