//===- support/FlightRecorder.h - Per-job event ring buffer ----*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded ring buffer of structured events recorded during one
/// certification job -- the "black box" the scheduler dumps as a JSON
/// artifact when a job errors, hits its deadline, or trips an
/// unsound-abstraction guard, and silently discards when the job
/// succeeds. Because the buffer is bounded (drop-oldest, default 256
/// events) and recording is a couple of string copies behind a mutex, it
/// is cheap enough to leave on for every scheduled job.
///
/// Events carry a monotonic timestamp relative to the recorder's
/// creation, a short machine-readable kind ("checkpoint", "degrade",
/// "deadline", "fault", "retry", ...), a free-form detail
/// string, and up to three numeric payload slots whose meaning is
/// per-kind (documented in DESIGN.md "Precision observability").
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_FLIGHTRECORDER_H
#define DEEPT_SUPPORT_FLIGHTRECORDER_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

namespace deept {
namespace support {

class FlightRecorder {
public:
  struct Event {
    double TMs = 0.0;   ///< Milliseconds since recorder creation.
    std::string Kind;   ///< Machine-readable event class.
    std::string Detail; ///< Free-form context (site, stage, message).
    double A = 0.0;     ///< Per-kind numeric payload slots.
    double B = 0.0;
    double C = 0.0;
  };

  explicit FlightRecorder(size_t Capacity = 256);

  /// Appends an event, dropping the oldest when full. Thread-safe.
  void record(const std::string &Kind, const std::string &Detail,
              double A = 0.0, double B = 0.0, double C = 0.0);

  size_t size() const;
  uint64_t droppedCount() const;
  size_t capacity() const { return Cap; }

  /// The buffer as one JSON object:
  ///   {"job":"<key>","capacity":N,"dropped":N,
  ///    "events":[{"t_ms":..,"kind":"..","detail":"..",
  ///               "a":..,"b":..,"c":..},...]}
  std::string toJson(const std::string &JobKey) const;

  /// Atomically writes toJson() to \p Path; false + \p Err on failure.
  bool dumpJson(const std::string &Path, const std::string &JobKey,
                std::string *Err = nullptr) const;

private:
  double nowMs() const;

  mutable std::mutex Mu;
  size_t Cap;
  std::deque<Event> Events;
  uint64_t Dropped = 0;
  std::chrono::steady_clock::time_point Start;
};

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_FLIGHTRECORDER_H
