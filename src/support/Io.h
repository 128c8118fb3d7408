//===- support/Io.h - Crash-safe file IO helpers ---------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small set of POSIX file helpers the robustness layer is built on:
///
///  * atomicWriteFile -- write-temp-then-rename, so readers never observe
///    a half-written file (the model serializer uses it; a crash mid-save
///    leaves the previous file intact).
///  * AppendFile -- an append-only record writer where each record is one
///    write(2) call (O_APPEND keeps concurrent appends unsheared) with an
///    optional fsync per record; the scheduler's JSONL store is built on
///    it.
///  * truncateFile -- drop a torn trailing record during store recovery.
///
/// All helpers report failure through support::Error out-params rather
/// than throwing, since callers usually have a graceful degradation path.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_IO_H
#define DEEPT_SUPPORT_IO_H

#include "support/Error.h"

#include <cstdint>
#include <string>

namespace deept {
namespace support {

/// Writes \p Data to \p Path atomically: the bytes go to "Path.tmp.<pid>"
/// first, are fsync'd, and the temp file is rename(2)d over Path. On any
/// failure the temp file is removed, \p Err (optional) is filled, and
/// Path is left untouched.
bool atomicWriteFile(const std::string &Path, const std::string &Data,
                     Error *Err = nullptr);

/// An append-only file where each append is a single write(2). Move-only.
class AppendFile {
public:
  AppendFile() = default;
  AppendFile(const AppendFile &) = delete;
  AppendFile &operator=(const AppendFile &) = delete;
  ~AppendFile() { close(); }

  /// Opens (creating if needed) \p Path for appending.
  bool open(const std::string &Path, Error *Err = nullptr);
  bool isOpen() const { return Fd >= 0; }
  void close();

  /// Appends \p Record in one write call, retrying on EINTR and resuming
  /// after short writes. With \p Fsync the record is durable on return.
  bool append(const std::string &Record, bool Fsync, Error *Err = nullptr);

private:
  int Fd = -1;
  std::string Path;
};

/// Truncates \p Path to \p Size bytes.
bool truncateFile(const std::string &Path, uint64_t Size,
                  Error *Err = nullptr);

/// Size of \p Path in bytes; false when it cannot be stat'd.
bool fileSize(const std::string &Path, uint64_t &Size);

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_IO_H
