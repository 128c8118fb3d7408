//===- perfbench/bench.cpp - End-to-end certification benchmark -*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's benchmark. It times calls into the public library API
/// from outside -- nn::loadModel, verify::certifiedRadius with
/// DeepTVerifier::certifyMargin as the probe, verify::Scheduler::run and
/// check::checkCertificate -- and reads per-layer counts as deltas of the
/// support::Metrics registry and of getrusage.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
///
/// run from the root of a source checkout (models load from its model
/// cache directory; --work is the scratch directory for the batch
/// workload's stores and certificates, removed at exit).
///
/// Each workload is a closed loop with one client. --trace 0 measures the
/// end-to-end metrics with tracing off. --trace 1 runs its queries twice,
/// first untraced, then traced: registry and rusage deltas come from the
/// untraced half, span times from the traced half, and the wall-time
/// difference of the two halves is the tracing overhead. The last line of stdout is the
/// result object; the line before it records the ISA, thread counts, seed,
/// the tail percentile and the digest of the certified radii.
///
//===----------------------------------------------------------------------===//

#include "attack/Pgd.h"
#include "check/CertCheck.h"
#include "data/SyntheticCorpus.h"
#include "nn/Serialize.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "tensor/Kernels.h"
#include "verify/DeepT.h"
#include "verify/RadiusSearch.h"
#include "verify/Scheduler.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

using namespace deept;
using tensor::Matrix;

namespace {

namespace fs = std::filesystem;

const auto ProcessStart = std::chrono::steady_clock::now();

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One benchmark workload. Queries are drawn from the sst corpus the
/// cached models were trained on; the seed picks the sentences and word
/// positions, the workload fixes everything that sets a query's cost.
struct Workload {
  const char *Name;
  const char *Why;
  /// Cached model, loaded read-only from the model cache directory.
  const char *Model;
  zono::DotMethod Method;
  /// Pool threads: nproc / NprocDivisor (at least 1), or 1 when 0.
  /// Intra-query parallelism runs thousands of pool barriers per query,
  /// each waiting on its slowest thread: at nproc threads on a shared
  /// 4-vCPU host, a host preemption episode stretched the median search
  /// 2.4x at 1.1x the CPU time. Half the cores keep that workload steady.
  unsigned NprocDivisor;
  /// One verify::Scheduler batch per loop iteration instead of one search.
  bool Batch;
  /// Sentence lengths, cycled by query index. A single length keeps the
  /// latency distribution unimodal, so its median and tail do not jump
  /// between length clusters from run to run.
  std::vector<size_t> Lengths;
  /// Queries (batches for Batch) every run completes, however long they
  /// take; the radius geomean and digest cover exactly these, so they are
  /// a pure function of (workload, seed, ISA).
  size_t Window;
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> W = {
      {"fast_m12_serial",
       "DeepT-Fast radius searches on sst_m12 at 1 thread: the paper's "
       "headline verifier at full depth, bound by zono, tensor and "
       "allocation",
       "sst_m12", zono::DotMethod::Fast, 0, false, {4}, 36},
      {"precise_m3_parallel",
       "DeepT-Precise radius searches on sst_m3 with the pool at nproc/2 "
       "inside each query: Eq. 6 dot products dominate; control for the "
       "Fast path",
       "sst_m3", zono::DotMethod::Precise, 2, false, {5}, 36},
      {"batch_fast_m6_audit",
       "Scheduler batches on sst_m6 at nproc mixing Fast searches and "
       "fixed-eps jobs, JSONL store and certificates on, every certificate "
       "replayed",
       "sst_m6", zono::DotMethod::Fast, 1, true, {4, 5, 6}, 4},
  };
  return W;
}

/// Jobs per scheduler batch: even slots are radius searches, odd slots
/// single-margin jobs at a fixed eps.
constexpr size_t BatchJobs = 12;

/// Queries generated per setup; loops wrap around when they run out.
constexpr size_t QueryPool = 256;

/// Setups per run; setup_s and the setup-layer metrics are their medians.
constexpr int SetupRepeats = 9;

/// The table-bench search options (bench/Common.h EvalOptions) and the
/// scheduler's default noise budget.
verify::RadiusSearchOptions searchOptions() {
  verify::RadiusSearchOptions O;
  O.InitRadius = 0.05;
  O.BisectSteps = 5;
  O.MaxRadius = 8.0;
  return O;
}
constexpr size_t NoiseBudget = 600;

const double Norms[3] = {1.0, 2.0, Matrix::InfNorm};

/// Fixed-eps job radii, about a quarter of the typical sst_m6 certified
/// radius of each norm, so most of these jobs certify and emit a
/// certificate.
double fixedEps(double P) {
  if (P == 1.0)
    return 0.05;
  if (P == 2.0)
    return 0.025;
  return 0.005;
}

const char *normName(double P) {
  if (P == 1.0)
    return "l1";
  if (P == 2.0)
    return "l2";
  return "linf";
}

struct Query {
  std::vector<size_t> Tokens;
  size_t Label = 0;
  size_t Word = 0;
  double P = 2.0;
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it; the maximum when there are ten samples or fewer.
struct Tail {
  double Value = 0.0;
  double Percentile = 100.0;
};
Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t K = N > 10 ? N - 11 : N - 1;
  T.Value = V[K];
  T.Percentile = 100.0 * static_cast<double>(K + 1) / static_cast<double>(N);
  return T;
}

uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  return "\"" + support::jsonEscape(S) + "\"";
}

/// CPU time, page faults and peak RSS of the whole process.
struct Usage {
  double UserS = 0.0, SysS = 0.0, MinFlt = 0.0, MaxRssKb = 0.0;

  static Usage now() {
    rusage R;
    getrusage(RUSAGE_SELF, &R);
    Usage U;
    U.UserS = R.ru_utime.tv_sec + R.ru_utime.tv_usec * 1e-6;
    U.SysS = R.ru_stime.tv_sec + R.ru_stime.tv_usec * 1e-6;
    U.MinFlt = static_cast<double>(R.ru_minflt);
    U.MaxRssKb = static_cast<double>(R.ru_maxrss);
    return U;
  }
};

/// Accumulated usage of the timed regions only.
struct UsageDelta {
  double UserS = 0.0, SysS = 0.0, MinFlt = 0.0;

  void add(const Usage &Before, const Usage &After) {
    UserS += After.UserS - Before.UserS;
    SysS += After.SysS - Before.SysS;
    MinFlt += After.MinFlt - Before.MinFlt;
  }
  double cpuS() const { return UserS + SysS; }
};

/// A snapshot of the process-global, cumulative metrics registry; layer
/// counts are differences of two snapshots around a timed call.
struct RegistrySnapshot {
  std::map<std::string, double> Counters;
  std::map<std::string, support::Histogram::Stats> Histograms;

  static RegistrySnapshot take() {
    const support::Metrics &M = support::Metrics::global();
    return {M.counterSnapshot(), M.histogramSnapshot()};
  }
};

double valueOr0(const std::map<std::string, double> &M,
                const std::string &Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0.0 : It->second;
}

/// Accumulated registry deltas over the timed calls of a run.
struct RegistryDelta {
  std::map<std::string, double> Counters, HistCount, HistSum;

  void add(const RegistrySnapshot &Before, const RegistrySnapshot &After) {
    for (const auto &[Name, V] : After.Counters)
      Counters[Name] += V - valueOr0(Before.Counters, Name);
    for (const auto &[Name, S] : After.Histograms) {
      auto It = Before.Histograms.find(Name);
      support::Histogram::Stats S0;
      if (It != Before.Histograms.end())
        S0 = It->second;
      HistCount[Name] += static_cast<double>(S.Count - S0.Count);
      HistSum[Name] += S.Sum - S0.Sum;
    }
  }
  double counter(const std::string &Name) const {
    return valueOr0(Counters, Name);
  }
};

/// Per-span-name totals of the trace log, with "[index]" / "[key]" tags
/// stripped so e.g. every deept.layer[i] adds into deept.layer.
struct SpanTotals {
  struct Agg {
    double DurMs = 0.0, SelfMs = 0.0;
    size_t Count = 0;
  };
  std::map<std::string, Agg> ByName;
  std::vector<double> ProbeMs;

  /// Folds the current trace log in and clears it.
  void drain() {
    std::string Json = support::Trace::toChromeJson();
    support::Trace::clear();
    support::JsonValue Doc;
    std::string Err;
    if (!support::parseJson(Json, Doc, &Err))
      throw support::Error(support::ErrorCode::StoreCorrupt, "perfbench.trace",
                           "trace log does not parse: " + Err);
    const support::JsonValue *Events = Doc.find("traceEvents");
    if (!Events)
      return;
    for (const support::JsonValue &E : Events->Items) {
      const support::JsonValue *Name = E.find("name");
      const support::JsonValue *Dur = E.find("dur");
      const support::JsonValue *Args = E.find("args");
      const support::JsonValue *Self = Args ? Args->find("self_us") : nullptr;
      if (!Name || !Dur || !Self)
        continue;
      std::string Base = Name->StringVal.substr(0, Name->StringVal.find('['));
      Agg &A = ByName[Base];
      A.DurMs += Dur->NumberVal * 1e-3;
      A.SelfMs += Self->NumberVal * 1e-3;
      ++A.Count;
      if (Base == "radius_search.probe")
        ProbeMs.push_back(Dur->NumberVal * 1e-3);
    }
  }
  double dur(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? 0.0 : It->second.DurMs;
  }
  double self(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? 0.0 : It->second.SelfMs;
  }
};

/// Enables tracing for one scope.
struct TracingOn {
  TracingOn() {
    support::Trace::clear();
    support::Trace::setEnabled(true);
  }
  ~TracingOn() { support::Trace::setEnabled(false); }
  TracingOn(const TracingOn &) = delete;
  TracingOn &operator=(const TracingOn &) = delete;
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

struct SetupResult {
  nn::TransformerModel Model;
  std::vector<Query> Queries;
  double LoadMs = 0.0, QueryGenMs = 0.0;
};

/// Loads the workload's model read-only and draws its queries. A model
/// that does not load is a typed support::Error: the benchmark never
/// retrains (and so never overwrites) a cached model.
SetupResult setUp(const Workload &W, uint64_t Seed) {
  support::TraceSpan Span("perfbench.setup");
  SetupResult S;
  std::string Path =
      nn::defaultModelCacheDir() + "/" + std::string(W.Model) + ".dptm";
  support::Timer LoadT;
  support::Error Err;
  if (!nn::loadModel(Path, S.Model, &Err))
    throw Err;
  S.LoadMs = LoadT.seconds() * 1e3;

  support::Timer GenT;
  // The corpus the cached sst models were trained on (table1's setup).
  data::CorpusConfig CC = data::CorpusConfig::sstLike(24);
  CC.MaxLen = 6;
  data::SyntheticCorpus Corpus(CC);
  if (Corpus.vocabSize() != S.Model.Config.VocabSize ||
      CC.EmbedDim != S.Model.Config.EmbedDim)
    throw support::Error(support::ErrorCode::ModelCorrupt, "perfbench.setup",
                         Path + " was not trained on the sst corpus");
  support::Rng Rng(0x9e3779b97f4a7c15ULL ^ Seed);
  size_t NL = W.Lengths.size();
  for (size_t I = 0; I < QueryPool; ++I) {
    Query Q;
    size_t Len = W.Lengths[I % NL];
    for (int Guard = 0;; ++Guard) {
      if (Guard > 100000)
        throw support::Error(support::ErrorCode::JobInvalid,
                             "perfbench.setup",
                             "no correctly classified sentence of length " +
                                 std::to_string(Len));
      data::Sentence Sent = Corpus.sampleSentence(Rng);
      if (Sent.Tokens.size() != Len ||
          S.Model.classify(Sent.Tokens) != Sent.Label)
        continue;
      Q.Tokens = std::move(Sent.Tokens);
      Q.Label = Sent.Label;
      break;
    }
    Q.Word = static_cast<size_t>(Rng.uniformInt(Len));
    // Norms cycle l1/l2/linf; with several lengths every (length, norm)
    // pair appears once per Lengths.size() * 3 queries.
    Q.P = Norms[(I / NL) % 3];
    S.Queries.push_back(std::move(Q));
  }
  S.QueryGenMs = GenT.seconds() * 1e3;
  return S;
}

//===----------------------------------------------------------------------===//
// The timed calls
//===----------------------------------------------------------------------===//

/// One certified-radius search with DeepTVerifier::certifyMargin as the
/// probe.
double searchRadius(const nn::TransformerModel &Model, const Workload &W,
                    const Query &Q) {
  support::TraceSpan Span("perfbench.query");
  verify::VerifierConfig VC;
  VC.Method = W.Method;
  VC.NoiseReductionBudget = NoiseBudget;
  verify::DeepTVerifier V(Model, VC);
  Matrix X = Model.embed(Q.Tokens);
  return verify::certifiedRadius(
      [&](double R) {
        zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, Q.Word, Q.P, R);
        return V.certifyMargin(In, Q.Label) > 0.0;
      },
      searchOptions());
}

verify::JobQueue batchQueue(const std::vector<Query> &Queries, size_t Batch) {
  verify::JobQueue Queue;
  for (size_t J = 0; J < BatchJobs; ++J) {
    const Query &Q = Queries[(Batch * BatchJobs + J) % Queries.size()];
    verify::JobSpec S;
    S.Id = "b" + std::to_string(Batch) + "-j" + std::to_string(J);
    S.Tokens = Q.Tokens;
    S.TrueClass = Q.Label;
    S.Word = Q.Word;
    S.P = Q.P;
    S.Method = verify::JobMethod::Fast;
    S.NoiseReductionBudget = NoiseBudget;
    S.SearchRadius = J % 2 == 0;
    S.Search = searchOptions();
    S.Epsilon = fixedEps(Q.P);
    Queue.push(std::move(S));
  }
  return Queue;
}

struct BatchOutcome {
  std::vector<verify::JobResult> Results;
  double RunS = 0.0;
  double ReplayMs = 0.0;
  size_t Certs = 0;
  size_t ReplayFailures = 0;
  /// Jobs whose status, certificate or verdict is wrong.
  std::vector<bool> JobFailed;
  double StoreBytes = 0.0;
};

/// One Scheduler::run batch with the JSONL store and certificate directory
/// on, then every emitted certificate replayed by check::checkCertificate.
/// A fresh Scheduler per batch: its warm-start hint table would otherwise
/// carry radii from one batch into the next.
BatchOutcome runBatch(const nn::TransformerModel &Model,
                      const verify::JobQueue &Queue, const fs::path &Dir) {
  support::TraceSpan Span("perfbench.batch");
  BatchOutcome B;
  fs::create_directories(Dir / "certs");
  verify::SchedulerOptions Opts;
  Opts.JsonlPath = (Dir / "results.jsonl").string();
  Opts.CertDir = (Dir / "certs").string();
  support::Timer RunT;
  B.Results = verify::Scheduler(Model, Opts).run(Queue);
  B.RunS = RunT.seconds();

  support::Timer ReplayT;
  std::map<std::string, bool> Verdicts; // query key -> replayed verdict
  for (const fs::directory_entry &E : fs::directory_iterator(Dir / "certs")) {
    support::TraceSpan ReplaySpan("perfbench.replay");
    ++B.Certs;
    std::ifstream In(E.path(), std::ios::binary);
    std::string Line((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    try {
      check::CertificateSummary S = check::checkCertificate(Line);
      if (!Verdicts.emplace(S.Query, S.Certified).second)
        ++B.ReplayFailures; // two certificates claim one query
    } catch (const std::exception &Ex) {
      ++B.ReplayFailures;
      std::fprintf(stderr, "perfbench: certificate %s does not replay: %s\n",
                   E.path().filename().c_str(), Ex.what());
    }
  }
  B.ReplayMs = ReplayT.seconds() * 1e3;

  B.JobFailed.assign(B.Results.size(), false);
  size_t Matched = 0;
  for (size_t I = 0; I < B.Results.size(); ++I) {
    const verify::JobResult &R = B.Results[I];
    auto It = Verdicts.find(R.Key);
    bool HasCert = It != Verdicts.end();
    Matched += HasCert;
    // A certified job has exactly one replaying certificate that also
    // says certified; an uncertified job has none.
    bool Ok = R.Status == verify::JobStatus::Ok &&
              (R.Certified ? HasCert && It->second : !HasCert);
    B.JobFailed[I] = !Ok;
  }
  if (Matched != Verdicts.size())
    ++B.ReplayFailures; // a certificate for a query not in the batch
  // The store holds one record per job.
  std::ifstream Store(Dir / "results.jsonl", std::ios::binary);
  std::string Record;
  size_t Records = 0;
  while (std::getline(Store, Record)) {
    ++Records;
    B.StoreBytes += static_cast<double>(Record.size() + 1);
  }
  if (Records != B.Results.size())
    std::fill(B.JobFailed.begin(), B.JobFailed.end(), true);
  return B;
}

//===----------------------------------------------------------------------===//
// The measurement loop
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  std::string Work;
};

/// Everything one run measured.
struct Run {
  // Untraced (timed) half.
  double TimedS = 0.0;
  UsageDelta Use;
  RegistryDelta Reg;
  std::vector<double> LatencyS;
  size_t Attempted = 0, Failed = 0;
  /// Radius-window radii, in query order.
  std::vector<double> WindowRadii;
  /// Completed search queries (for the PGD oracle).
  std::vector<std::pair<size_t, double>> Searched;
  size_t SearchQueries = 0;
  // Scheduler / io / check (batch workload).
  size_t Batches = 0;
  std::vector<double> JobMs, QueueMs;
  double StragglerSum = 0.0, OverheadMsSum = 0.0;
  double StoreBytes = 0.0, ReplayMs = 0.0;
  size_t Certs = 0, ReplayFailures = 0;
  // Traced half.
  double TracedS = 0.0;
  SpanTotals Spans;
};

/// Runs query (batch, for the batch workload) \p I untraced and records
/// it: latency, rusage and registry deltas, failures and radii.
void runUntraced(const Workload &W, const SetupResult &S, const Options &O,
                 size_t I, Run &R) {
  if (!W.Batch) {
    const Query &Q = S.Queries[I % S.Queries.size()];
    RegistrySnapshot Before = RegistrySnapshot::take();
    Usage U0 = Usage::now();
    support::Timer T;
    double Radius = 0.0;
    bool Failed = false;
    try {
      Radius = searchRadius(S.Model, W, Q);
    } catch (const std::exception &Ex) {
      Failed = true;
      std::fprintf(stderr, "perfbench: query %zu failed: %s\n", I, Ex.what());
    }
    double Sec = T.seconds();
    R.Use.add(U0, Usage::now());
    R.Reg.add(Before, RegistrySnapshot::take());
    R.TimedS += Sec;
    R.LatencyS.push_back(Sec);
    ++R.Attempted;
    ++R.SearchQueries;
    R.Failed += Failed;
    if (!Failed)
      R.Searched.emplace_back(I % S.Queries.size(), Radius);
    if (I < W.Window)
      R.WindowRadii.push_back(Radius);
    return;
  }

  verify::JobQueue Queue = batchQueue(S.Queries, I);
  fs::path Dir = fs::path(O.Work) / ("batch-" + std::to_string(I));
  RegistrySnapshot Before = RegistrySnapshot::take();
  Usage U0 = Usage::now();
  support::Timer T;
  BatchOutcome B = runBatch(S.Model, Queue, Dir);
  double Sec = T.seconds();
  R.Use.add(U0, Usage::now());
  R.Reg.add(Before, RegistrySnapshot::take());
  fs::remove_all(Dir);
  R.TimedS += Sec;
  ++R.Batches;
  double Threads =
      static_cast<double>(support::ThreadPool::global().threadCount());
  double JobSum = 0.0, LastEndMs = 0.0;
  for (size_t J = 0; J < B.Results.size(); ++J) {
    const verify::JobResult &JR = B.Results[J];
    double EndMs = JR.QueueMs + JR.Seconds * 1e3;
    R.LatencyS.push_back(EndMs * 1e-3);
    R.JobMs.push_back(JR.Seconds * 1e3);
    R.QueueMs.push_back(JR.QueueMs);
    JobSum += JR.Seconds;
    LastEndMs = std::max(LastEndMs, EndMs);
    ++R.Attempted;
    R.Failed += B.JobFailed[J];
    if (Queue.spec(J).SearchRadius) {
      ++R.SearchQueries;
      if (I < W.Window)
        R.WindowRadii.push_back(JR.Radius);
    }
    if (B.JobFailed[J])
      std::fprintf(stderr, "perfbench: job %s failed (%s%s%s)\n",
                   JR.Key.c_str(), verify::jobStatusName(JR.Status),
                   JR.Error.empty() ? "" : ": ", JR.Error.c_str());
  }
  R.StragglerSum += JobSum > 0 ? B.RunS / (JobSum / Threads) : 0.0;
  R.OverheadMsSum += B.RunS * 1e3 - LastEndMs;
  R.StoreBytes += B.StoreBytes;
  R.ReplayMs += B.ReplayMs;
  R.Certs += B.Certs;
  // A certificate that does not replay already fails its job above; the
  // count also covers certificates no job of the batch claims.
  R.ReplayFailures += B.ReplayFailures;
}

/// Runs query (or batch) \p I again with tracing on, keeping only its
/// wall time and spans.
void runTraced(const Workload &W, const SetupResult &S, const Options &O,
               size_t I, Run &R) {
  fs::path Dir = fs::path(O.Work) / ("traced-" + std::to_string(I));
  {
    TracingOn On;
    support::Timer T;
    try {
      if (W.Batch)
        runBatch(S.Model, batchQueue(S.Queries, I), Dir);
      else
        searchRadius(S.Model, W, S.Queries[I % S.Queries.size()]);
    } catch (const std::exception &) {
      // Already counted by the untraced run of the same query.
    }
    R.TracedS += T.seconds();
  }
  R.Spans.drain();
  fs::remove_all(Dir);
}

/// Runs the closed loop. Untraced runs go on until both the time budget
/// and the radius window are used up. Traced runs spend half the budget
/// untraced, then run the same queries again traced: the trace log's
/// buffers change the heap's layout, so traced queries never run before
/// the untraced ones whose page faults are counted.
Run measure(const Workload &W, const SetupResult &S, const Options &O) {
  Run R;
  for (const char *G : {"verify.propagate.peak_eps_symbols",
                        "verify.propagate.peak_coeff_bytes"})
    support::Metrics::global().gauge(G).reset();
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  size_t N = 0;
  while (N < 1 || R.TimedS < Budget || (!O.Trace && N < W.Window))
    runUntraced(W, S, O, N++, R);
  if (O.Trace)
    for (size_t I = 0; I < N; ++I)
      runTraced(W, S, O, I, R);
  return R;
}

/// Soundness oracle, outside the timed region: PGD must find no
/// counterexample inside any certified radius.
size_t attackMisses(const SetupResult &S, const Run &R) {
  size_t Misses = 0;
  for (const auto &[Idx, Radius] : R.Searched) {
    if (Radius <= 0.0)
      continue;
    const Query &Q = S.Queries[Idx];
    if (attack::attackTransformerLpBall(S.Model, Q.Tokens, Q.Word, Q.P,
                                        Radius, Q.Label)) {
      ++Misses;
      std::fprintf(stderr,
                   "perfbench: PGD found a counterexample inside certified "
                   "%s radius %.17g (query %zu)\n",
                   normName(Q.P), Radius, Idx);
    }
  }
  return Misses;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string resultLine(bool Correct, size_t Attempted, size_t Failed,
                       const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", " : "") + quoted(Ms[I].Name) + ": {\"value\": " +
           num(Ms[I].Value) + ", \"unit\": " + quoted(Ms[I].Unit) + "}";
  return Out + "}}";
}

std::vector<Metric> endToEnd(const Run &R, double SetupS, size_t Failed,
                             double PeakRssMb) {
  double Q = static_cast<double>(std::max<size_t>(R.Attempted, 1));
  Tail T = tailOf(R.LatencyS);
  // Geometric mean: every norm weighs the same although l1 radii are an
  // order of magnitude above linf radii.
  double LogSum = 0.0;
  for (double Rad : R.WindowRadii)
    LogSum += std::log(std::max(Rad, searchOptions().MinRadius));
  double Geo = R.WindowRadii.empty()
                   ? 0.0
                   : std::exp(LogSum / static_cast<double>(R.WindowRadii.size()));
  return {
      {"setup_s", "s", SetupS},
      {"query_p50_s", "s", median(R.LatencyS)},
      {"query_tail_s", "s", T.Value},
      {"queries_per_s", "1/s", R.Attempted / R.TimedS},
      {"cpu_s_per_query", "s", R.Use.cpuS() / Q},
      {"peak_rss_mb", "MB", PeakRssMb},
      {"radius_geomean", "radius", Geo},
      {"ok_share", "share", 1.0 - static_cast<double>(Failed) / Q},
  };
}

std::vector<Metric> perLayer(const Run &R, double LoadMs, double GenMs,
                             size_t Threads) {
  const RegistryDelta &G = R.Reg;
  const SpanTotals &Sp = R.Spans;
  // Untraced counts are per attempted query; traced times are per query
  // of the traced half, which runs the same queries.
  double Q = static_cast<double>(std::max<size_t>(R.Attempted, 1));
  double SQ = static_cast<double>(std::max<size_t>(R.SearchQueries, 1));
  auto PerQ = [&](double V) { return V / Q; };
  const char *Isa = tensor::isaName(tensor::currentIsa());
  std::string Gemm = std::string("gemm.tile_ms.") + Isa;

  static const std::pair<const char *, const char *> Stages[] = {
      {"deept.noise_reduction_ms", "deept.noise_reduction"},
      {"deept.qkv_ms", "deept.attention.qkv"},
      {"deept.scores_ms", "deept.attention.scores"},
      {"deept.softmax_ms", "deept.attention.softmax"},
      {"deept.refine_ms", "deept.attention.refine"},
      {"deept.attn_output_ms", "deept.attention.output"},
      {"deept.proj_norm_ms", "deept.attention.proj_norm"},
      {"deept.ffn_ms", "deept.ffn"},
      {"deept.pooler_ms", "deept.pooler"},
  };
  // Self time of the enclosing spans: the per-head Q/K/V column slices
  // and the score/output checkpoints (head), the layer-input and
  // layer-output checkpoints (layer). With them the stages tile the
  // propagation.
  static const std::pair<const char *, const char *> SelfStages[] = {
      {"deept.attn_head_self_ms", "deept.attention.head"},
      {"deept.layer_self_ms", "deept.layer"},
  };
  std::vector<Metric> Ms = {
      {"nn.load_ms", "ms", LoadMs},
      {"data.querygen_ms", "ms", GenMs},
      {"search.probes_per_query", "count",
       G.counter("verify.radius_search.probes") / SQ},
      {"search.probe_p50_ms", "ms", median(Sp.ProbeMs)},
  };
  double StageSum = 0.0;
  for (const auto &[Metric, Span] : Stages) {
    StageSum += Sp.dur(Span);
    Ms.push_back({Metric, "ms", PerQ(Sp.dur(Span))});
  }
  for (const auto &[Metric, Span] : SelfStages) {
    StageSum += Sp.self(Span);
    Ms.push_back({Metric, "ms", PerQ(Sp.self(Span))});
  }
  // Searches are timed by their probes; the batch also runs single-margin
  // jobs, so there the stages are compared with the job spans.
  double ProbeWall = R.Batches ? Sp.dur("sched.job")
                               : Sp.dur("radius_search.probe");
  double DotSelf = Sp.self("zono.dot_rows");
  double FlopsEst = G.counter("zono.dot.flops_est");
  double CpuS = R.Use.cpuS();
  size_t Jobs = R.JobMs.size();
  double Batches = static_cast<double>(std::max<size_t>(R.Batches, 1));
  std::vector<Metric> Rest = {
      {"deept.stage_coverage", "share", ProbeWall > 0 ? StageSum / ProbeWall
                                                      : 0.0},
      {"trace.overhead_share", "share",
       R.TimedS > 0 ? (R.TracedS - R.TimedS) / R.TimedS : 0.0},
      {"zono.dot_affine_ms", "ms", PerQ(DotSelf)},
      {"zono.dot_quad_fast_ms", "ms", PerQ(Sp.self("zono.dot.quadratic_fast"))},
      {"zono.dot_quad_precise_ms", "ms",
       PerQ(Sp.self("zono.dot.quadratic_precise"))},
      {"zono.softmax_ms", "ms", PerQ(Sp.self("zono.softmax"))},
      {"zono.refine_ms", "ms", PerQ(Sp.self("zono.softmax_refine"))},
      {"zono.elementwise_ms", "ms", PerQ(Sp.self("zono.elementwise"))},
      {"zono.reduce_ms", "ms", PerQ(Sp.self("zono.reduce"))},
      {"zono.dot_flops_est", "flop", PerQ(FlopsEst)},
      // Computed, not measured: the counter estimates the affine planes
      // only, and dot_rows self time excludes the quadratic child spans.
      {"zono.dot_affine_gflops", "GFLOP/s",
       DotSelf > 0 ? FlopsEst / (DotSelf * 1e-3) * 1e-9 : 0.0},
      {"zono.eps_created", "count", PerQ(G.counter("zono.eps_symbols.created"))},
      {"zono.eps_reduced", "count", PerQ(G.counter("zono.eps_symbols.reduced"))},
      {"zono.densify", "count", PerQ(G.counter("zono.densify_count"))},
      {"zono.peak_eps_symbols", "count",
       support::Metrics::global().gaugeValue(
           "verify.propagate.peak_eps_symbols")},
      {"zono.peak_coeff_bytes", "B",
       support::Metrics::global().gaugeValue(
           "verify.propagate.peak_coeff_bytes")},
      {"zono.refine_yield", "count",
       G.counter("zono.refine.rows") > 0
           ? G.counter("zono.refine.symbols_tightened") /
                 G.counter("zono.refine.rows")
           : 0.0},
      {"tensor.gemm_tile_ms", "ms", PerQ(valueOr0(G.HistSum, Gemm))},
      {"tensor.gemm_tiles", "count", PerQ(valueOr0(G.HistCount, Gemm))},
      {"mem.minflt_per_query", "count", PerQ(R.Use.MinFlt)},
      {"mem.sys_cpu_share", "share", CpuS > 0 ? R.Use.SysS / CpuS : 0.0},
      {"pool.tasks_per_query", "count", PerQ(G.counter("pool.tasks"))},
      {"pool.idle_ms_per_query", "ms",
       PerQ(G.counter("pool.steal_idle_ns") * 1e-6)},
      {"pool.efficiency", "share",
       R.TimedS > 0 ? CpuS / (R.TimedS * static_cast<double>(Threads)) : 0.0},
      {"sched.job_p50_ms", "ms", median(R.JobMs)},
      {"sched.queue_p50_ms", "ms", median(R.QueueMs)},
      {"sched.straggler_ratio", "ratio", R.Batches ? R.StragglerSum / Batches
                                                   : 0.0},
      {"sched.overhead_ms", "ms", R.Batches ? R.OverheadMsSum / Batches : 0.0},
      {"io.store_bytes_per_batch", "B", R.Batches ? R.StoreBytes / Batches
                                                  : 0.0},
      {"io.cert_bytes_per_query", "B",
       Jobs ? G.counter("cert.bytes") / static_cast<double>(Jobs) : 0.0},
      {"check.replay_ms_per_cert", "ms",
       R.Certs ? R.ReplayMs / static_cast<double>(R.Certs) : 0.0},
      {"check.replay_failures", "count",
       static_cast<double>(R.ReplayFailures)},
  };
  Ms.insert(Ms.end(), Rest.begin(), Rest.end());
  return Ms;
}

bool parseOptions(int Argc, char **Argv, Options &O, std::string &Err) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Err = Flag + " needs a value";
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--seed") {
      errno = 0;
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = !V.empty() && V[0] != '-' && *End == '\0' && errno == 0;
      if (!HaveSeed) {
        Err = "--seed wants a non-negative integer, got '" + V + "'";
        return false;
      }
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = !V.empty() && *End == '\0' && O.Seconds > 0 &&
                    O.Seconds <= 3600;
      if (!HaveSeconds) {
        Err = "--seconds wants a number in (0, 3600], got '" + V + "'";
        return false;
      }
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1") {
        Err = "--trace wants 0 or 1, got '" + V + "'";
        return false;
      }
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (Flag == "--work") {
      O.Work = V;
    } else {
      Err = "unknown flag " + Flag;
      return false;
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace) {
    Err = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
          "[--work DIR]";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseOptions(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : workloads())
    if (O.Workload == Cand.Name)
      W = &Cand;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  std::error_code Ec;
  if (O.Work.empty())
    O.Work = ".bench_build/perfbench-work-" + std::to_string(::getpid());

  size_t Nproc = std::max(1u, std::thread::hardware_concurrency());
  size_t Threads =
      W->NprocDivisor ? std::max<size_t>(1, Nproc / W->NprocDivisor) : 1;
  support::ThreadPool::global().setThreadCount(Threads);

  // Set up several times; setup_s is the median, the first measured from
  // process start.
  std::vector<double> SetupS, LoadMs, GenMs;
  SetupResult S;
  try {
    for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
      auto T0 = Rep == 0 ? ProcessStart : std::chrono::steady_clock::now();
      S = setUp(*W, O.Seed);
      SetupS.push_back(secondsSince(T0));
      LoadMs.push_back(S.LoadMs);
      GenMs.push_back(S.QueryGenMs);
    }
  } catch (const support::Error &E) {
    std::fprintf(stderr, "perfbench: setup failed [%s]: %s\n",
                 support::errorCodeName(E.code()), E.what());
    return 3;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", E.what());
    return 3;
  }

  // Warm-up outside the timed region: starts the pool workers and fills
  // the allocator and the verifier's thread-local scratch.
  {
    const Query &Q = S.Queries[0];
    verify::VerifierConfig VC;
    VC.Method = W->Method;
    VC.NoiseReductionBudget = NoiseBudget;
    Matrix X = S.Model.embed(Q.Tokens);
    verify::DeepTVerifier(S.Model, VC)
        .certifyMargin(zono::Zonotope::lpBallOnRow(X, Q.Word, Q.P, 1e-3),
                       Q.Label);
  }

  fs::create_directories(O.Work, Ec);
  Run R;
  try {
    R = measure(*W, S, O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", E.what());
    fs::remove_all(O.Work, Ec);
    return 4;
  }
  fs::remove_all(O.Work, Ec);
  double PeakRssMb = Usage::now().MaxRssKb / 1024.0;

  size_t Misses = attackMisses(S, R);
  size_t Failed = std::min(R.Attempted, R.Failed + Misses);

  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (double Rad : R.WindowRadii)
    Digest = fnv1a(Digest, &Rad, sizeof(Rad));
  char DigestHex[20];
  std::snprintf(DigestHex, sizeof(DigestHex), "%016llx",
                static_cast<unsigned long long>(Digest));
  Tail T = tailOf(R.LatencyS);

  std::printf(
      "{\"perfbench\": {\"workload\": %s, \"why\": %s, \"model\": %s, "
      "\"seed\": %llu, \"trace\": %d, \"isa\": %s, \"threads\": %zu, "
      "\"nproc\": %zu, \"attempted\": %zu, \"search_queries\": %zu, "
      "\"batches\": %zu, \"failed\": %zu, \"pgd_misses\": %zu, "
      "\"failed_share\": %s, \"tail_percentile\": %s, "
      "\"tail_samples\": %zu, \"radius_window\": %zu, "
      "\"radius_digest\": \"%s\"}}\n",
      quoted(W->Name).c_str(), quoted(W->Why).c_str(),
      quoted(W->Model).c_str(), static_cast<unsigned long long>(O.Seed),
      O.Trace ? 1 : 0, quoted(tensor::isaName(tensor::currentIsa())).c_str(),
      Threads, Nproc, R.Attempted, R.SearchQueries, R.Batches, Failed, Misses,
      num(static_cast<double>(Failed) /
          static_cast<double>(std::max<size_t>(R.Attempted, 1)))
          .c_str(),
      num(T.Percentile).c_str(), R.LatencyS.size(), R.WindowRadii.size(),
      DigestHex);

  std::vector<Metric> Ms =
      O.Trace ? perLayer(R, median(LoadMs), median(GenMs), Threads)
              : endToEnd(R, median(SetupS), Failed, PeakRssMb);
  std::printf("%s\n", resultLine(Failed == 0 && R.ReplayFailures == 0,
                                 std::max<size_t>(R.Attempted, 1),
                                 Failed, Ms)
                          .c_str());
  return 0;
}
