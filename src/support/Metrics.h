//===- support/Metrics.h - Named counter/gauge/histogram registry -*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a process-wide registry of
/// named counters (monotone sums), gauges (last/max values) and histograms
/// (count/sum/min/max aggregates). The abstract transformers and verifiers
/// record what happened -- eps symbols created and reduced, Fast vs
/// Precise dot products, refinement interval shrinkage, peak coefficient
/// bytes, FLOP estimates -- and the CLI / bench harnesses export the
/// registry as JSON (see DESIGN.md "Observability" for the name taxonomy).
///
/// Metrics are always on: increments are lock-free atomics (histograms use
/// a short critical section) and fire at transformer-call granularity, so
/// their cost vanishes next to the matrix work they count. Hot call sites
/// cache the handle:
///
///   static support::Counter &Calls =
///       support::Metrics::global().counter("zono.dot.fast.calls");
///   Calls.add(1);
///
/// Handles stay valid forever: the registry never erases entries (reset()
/// zeroes values but keeps registrations).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_METRICS_H
#define DEEPT_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace deept {
namespace support {

/// Monotone sum. add() is lock-free.
class Counter {
public:
  void add(double Delta = 1.0) {
    double Cur = Val.load(std::memory_order_relaxed);
    while (!Val.compare_exchange_weak(Cur, Cur + Delta,
                                      std::memory_order_relaxed)) {
    }
  }
  double value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Val{0.0};
};

/// Last-value or running-max instrument. set()/recordMax() are lock-free.
class Gauge {
public:
  void set(double V) { Val.store(V, std::memory_order_relaxed); }
  /// Keeps the maximum of all recorded values (peak tracking).
  void recordMax(double V) {
    double Cur = Val.load(std::memory_order_relaxed);
    while (Cur < V && !Val.compare_exchange_weak(Cur, V,
                                                 std::memory_order_relaxed)) {
    }
  }
  double value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Val{0.0};
};

/// Count/sum/min/max aggregate over observed samples, plus approximate
/// quantiles from a bounded, deterministically decimated sample buffer:
/// every Stride-th observation is retained, and when the buffer fills the
/// stride doubles and every other retained sample is dropped. The
/// retained set is a pure function of the observation sequence (no
/// randomness), so exports are reproducible.
class Histogram {
public:
  struct Stats {
    uint64_t Count = 0;
    double Sum = 0.0;
    double Min = 0.0;
    double Max = 0.0;
    /// Nearest-rank quantiles over the retained sample. An empty
    /// histogram reports exactly 0 for all of these (never NaN), so the
    /// JSON emitter always has a finite number to print.
    double P50 = 0.0;
    double P90 = 0.0;
    double P99 = 0.0;
    double mean() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
  };

  void observe(double V);
  Stats stats() const;
  /// Approximate \p Q quantile (nearest rank over the retained sample);
  /// 0 on an empty histogram. Q in [0, 1].
  double quantile(double Q) const;
  void reset();

private:
  /// Retained-sample capacity; compaction halves the buffer at this size.
  static constexpr size_t SampleCap = 512;
  double quantileSorted(const std::vector<double> &Sorted, double Q) const;
  mutable std::mutex Mu;
  Stats S;
  std::vector<double> Samples;
  uint64_t Stride = 1;
};

/// The named-instrument registry. Instruments are created on first use and
/// never destroyed; returned references are stable for the process
/// lifetime.
class Metrics {
public:
  /// The process-wide registry (the one the library records into).
  static Metrics &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Read-only lookups; 0 / empty stats when the instrument does not
  /// exist (they never create entries).
  double counterValue(const std::string &Name) const;
  double gaugeValue(const std::string &Name) const;
  Histogram::Stats histogramStats(const std::string &Name) const;

  /// Zeroes every instrument's value, keeping all registrations (and thus
  /// all cached references) valid. Scopes the registry to one run.
  void reset();

  /// Sorted name -> value snapshots of the registry (perfbench reads
  /// them). std::map keys keep the output ordering deterministic.
  std::map<std::string, double> counterSnapshot() const;
  std::map<std::string, Histogram::Stats> histogramSnapshot() const;

  /// The whole registry as a JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "mean":..,"p50":..,"p90":..,"p99":..}}}
  std::string toJson() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_METRICS_H
