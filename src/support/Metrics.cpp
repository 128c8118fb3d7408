//===- support/Metrics.cpp ------------------------------------*- C++ -*-===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>

using namespace deept;
using namespace deept::support;

void Histogram::observe(double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (S.Count == 0) {
    S.Min = V;
    S.Max = V;
  } else {
    S.Min = std::min(S.Min, V);
    S.Max = std::max(S.Max, V);
  }
  // Deterministic decimation: keep every Stride-th observation; at
  // capacity, drop every other retained sample and double the stride.
  if (S.Count % Stride == 0) {
    if (Samples.size() >= SampleCap) {
      size_t Out = 0;
      for (size_t I = 0; I < Samples.size(); I += 2)
        Samples[Out++] = Samples[I];
      Samples.resize(Out);
      Stride *= 2;
    }
    if (S.Count % Stride == 0)
      Samples.push_back(V);
  }
  S.Count++;
  S.Sum += V;
}

double Histogram::quantileSorted(const std::vector<double> &Sorted,
                                 double Q) const {
  // Nearest rank; an empty histogram reports 0 (never NaN) so the JSON
  // emitters always get a finite number.
  if (Sorted.empty())
    return 0.0;
  double Rank = std::ceil(Q * static_cast<double>(Sorted.size())) - 1.0;
  size_t I = Rank <= 0.0 ? 0 : static_cast<size_t>(Rank);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

Histogram::Stats Histogram::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats Out = S;
  if (!Samples.empty()) {
    std::vector<double> Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    Out.P50 = quantileSorted(Sorted, 0.50);
    Out.P90 = quantileSorted(Sorted, 0.90);
    Out.P99 = quantileSorted(Sorted, 0.99);
  }
  return Out;
}

double Histogram::quantile(double Q) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  return quantileSorted(Sorted, Q);
}

void Histogram::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  S = Stats();
  Samples.clear();
  Stride = 1;
}

Metrics &Metrics::global() {
  static Metrics M;
  return M;
}

Counter &Metrics::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Metrics::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Metrics::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

double Metrics::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second->value();
}

double Metrics::gaugeValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0.0 : It->second->value();
}

Histogram::Stats Metrics::histogramStats(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? Histogram::Stats() : It->second->stats();
}

void Metrics::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

std::map<std::string, double> Metrics::counterSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, double> Out;
  for (const auto &[Name, C] : Counters)
    Out[Name] = C->value();
  return Out;
}

std::map<std::string, Histogram::Stats> Metrics::histogramSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, Histogram::Stats> Out;
  for (const auto &[Name, H] : Histograms)
    Out[Name] = H->stats();
  return Out;
}

std::string Metrics::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"" + jsonEscape(Name) + "\":" + jsonNumber(C->value());
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"" + jsonEscape(Name) + "\":" + jsonNumber(G->value());
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ",";
    First = false;
    Histogram::Stats S = H->stats();
    Out += "\"" + jsonEscape(Name) + "\":{\"count\":" +
           jsonNumber(static_cast<double>(S.Count)) +
           ",\"sum\":" + jsonNumber(S.Sum) + ",\"min\":" + jsonNumber(S.Min) +
           ",\"max\":" + jsonNumber(S.Max) +
           ",\"mean\":" + jsonNumber(S.mean()) +
           ",\"p50\":" + jsonNumber(S.P50) + ",\"p90\":" + jsonNumber(S.P90) +
           ",\"p99\":" + jsonNumber(S.P99) + "}";
  }
  Out += "}}";
  return Out;
}
