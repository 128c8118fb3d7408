//===- support/Trace.h - Scoped spans and Chrome trace export --*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: RAII spans that record
/// nested wall-clock intervals into a process-wide log, exportable as
/// Chrome `trace_event` JSON (open in chrome://tracing or
/// https://ui.perfetto.dev) or as a per-span self-time summary table.
///
/// Tracing is compiled in everywhere but disabled by default; a disabled
/// TraceSpan costs one relaxed atomic load and two branches, so the hot
/// path can stay instrumented permanently (measured by the
/// BM_TraceSpanDisabled micro benchmark). Recording is thread-safe; span
/// begin/end bookkeeping is thread-local, so nesting and self-time are
/// exact per thread.
///
/// Usage:
///
///   support::Trace::setEnabled(true);
///   {
///     DEEPT_TRACE_SPAN("deept.propagate");     // or: TraceSpan S("...");
///     ...
///   }
///   support::Trace::writeChromeJson("run.trace.json");
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_TRACE_H
#define DEEPT_SUPPORT_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace deept {
namespace support {

/// Process-wide trace log. All members are static: spans from any thread
/// accumulate into one log so a whole verification run exports as a
/// single timeline.
class Trace {
public:
  /// Whether spans currently record. Reading this is the only cost a
  /// disabled span pays.
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }
  static void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Drops all recorded events.
  static void clear();

  /// Number of completed spans recorded so far.
  static size_t eventCount();

  /// The full log in Chrome trace_event JSON ("X" complete events,
  /// microsecond timestamps). Loads directly in chrome://tracing and
  /// Perfetto.
  static std::string toChromeJson();

  /// Writes toChromeJson() to \p Path; false on I/O failure.
  static bool writeChromeJson(const std::string &Path);

  /// A per-span-name table (count, total, self, average) sorted by self
  /// time; "self" excludes time spent in child spans.
  static std::string selfTimeSummary();

private:
  friend class TraceSpan;
  static void record(std::string Name, uint64_t StartNs, uint64_t DurNs,
                     uint64_t SelfNs, uint32_t Depth);
  static std::atomic<bool> Enabled;
};

/// RAII span: records [construction, destruction) under \p Name when
/// tracing is enabled. Spans nest lexically (strict LIFO per thread).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name) {
    if (Trace::enabled())
      begin(Name);
  }

  /// Span with an indexed name, e.g. ("deept.layer", 2) -> "deept.layer[2]";
  /// a negative \p Index leaves \p Name as it is. The formatting only
  /// happens when tracing is enabled.
  TraceSpan(const char *Name, int Index) {
    if (Trace::enabled())
      begin(Index < 0 ? Name
                      : std::string(Name) + "[" + std::to_string(Index) + "]");
  }

  /// Span with a string tag, e.g. ("sched.job", Key) -> "sched.job[0x1a..]";
  /// lets offline tooling join trace spans against batch JSONL rows by
  /// job key.
  TraceSpan(const char *Name, const std::string &Tag) {
    if (Trace::enabled())
      begin(std::string(Name) + "[" + Tag + "]");
  }

  ~TraceSpan() {
    if (Active)
      end();
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  void begin(std::string Name);
  void end();
  bool Active = false;
};

} // namespace support
} // namespace deept

#define DEEPT_TRACE_CONCAT_IMPL(A, B) A##B
#define DEEPT_TRACE_CONCAT(A, B) DEEPT_TRACE_CONCAT_IMPL(A, B)

/// Declares an anonymous scoped span; arguments as for TraceSpan.
#define DEEPT_TRACE_SPAN(...)                                                \
  ::deept::support::TraceSpan DEEPT_TRACE_CONCAT(TraceSpanAtLine,            \
                                                 __LINE__)(__VA_ARGS__)

#endif // DEEPT_SUPPORT_TRACE_H
