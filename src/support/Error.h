//===- support/Error.h - Structured error taxonomy -------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error taxonomy of the robustness layer. Failures on the
/// load / verify / scheduler paths carry a machine-readable ErrorCode plus
/// the site (a dotted path like "serialize.header") where they originated,
/// so a batch JSONL record, a CLI exit code and a log line all agree on
/// what went wrong. The codes matter for soundness reporting: an
/// `unsound_abstraction` error must never be folded into a `certified`
/// verdict, and the scheduler guarantees that by construction (the error
/// is thrown before any margin is produced).
///
/// Process exit codes group the taxonomy into classes (usage, load,
/// deadline, internal) so scripts can branch on `$?` without parsing
/// stderr; see exitCodeFor().
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_ERROR_H
#define DEEPT_SUPPORT_ERROR_H

#include <stdexcept>
#include <string>

namespace deept {
namespace support {

/// What failed, coarsely. Codes are stable identifiers (they appear in
/// JSONL result stores and test assertions); extend at the end.
enum class ErrorCode {
  Ok = 0,
  /// Malformed command line flags or job documents.
  BadArgument,
  /// A file could not be opened / read / written at the OS level.
  IoError,
  /// The model file does not exist (distinct from corrupt so the cache
  /// loader can retrain silently on a cold cache but warn on a bad one).
  ModelNotFound,
  /// The model file exists but fails validation: bad magic, unsupported
  /// version, implausible dimensions, truncation, CRC mismatch, or
  /// non-finite weights.
  ModelCorrupt,
  /// The JSONL result store could not be opened or recovered.
  StoreCorrupt,
  /// A job spec failed semantic validation (word out of range, unknown
  /// token, bad class).
  JobInvalid,
  /// A cooperative wall-clock deadline expired.
  DeadlineExceeded,
  /// An allocation failed (usually a coefficient matrix).
  OutOfMemory,
  /// A zonotope failed its soundness validation (non-finite center or
  /// coefficients, inconsistent shapes) after an abstract transformer.
  /// Surfaced as a structured job error -- never as `certified`.
  UnsoundAbstraction,
  /// A deliberately injected fault (support/Fault) with kind `fail`.
  FaultInjected,
  /// Anything else.
  Internal,
};

/// Stable snake_case name of a code ("model_corrupt", ...). These strings
/// are the JSONL `error_code` vocabulary.
const char *errorCodeName(ErrorCode C);

/// Process exit code classes for the CLI:
///   0 success, 2 bad arguments, 3 load/store failure, 4 deadline,
///   5 internal (OOM, unsound abstraction, injected fault, unknown).
int exitCodeFor(ErrorCode C);

/// An exception carrying a code and the site it was raised at. what() is
/// "code at site: message" so untyped catch sites still log usefully.
class Error : public std::runtime_error {
public:
  /// "No error yet" value for out-parameters.
  Error() : std::runtime_error("ok"), C(ErrorCode::Ok) {}

  Error(ErrorCode C, std::string Site, const std::string &Message)
      : std::runtime_error(std::string(errorCodeName(C)) + " at " + Site +
                           ": " + Message),
        C(C), Site(std::move(Site)) {}

  ErrorCode code() const { return C; }
  const std::string &site() const { return Site; }

private:
  ErrorCode C;
  std::string Site;
};

/// Maps an in-flight exception to its taxonomy code: Error reports its own
/// code, std::bad_alloc becomes OutOfMemory, anything else Internal.
ErrorCode codeOf(const std::exception &E);

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_ERROR_H
