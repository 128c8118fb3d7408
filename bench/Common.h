//===- bench/Common.h - Shared benchmark harness utilities -----*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the per-table benchmark binaries: corpus / model
/// presets (scaled-down versions of the paper's networks, see DESIGN.md
/// "Scaling"), cached training, sentence selection, and the
/// certified-radius evaluation loop whose Min / Avg / Time columns match
/// the paper's tables.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_BENCH_COMMON_H
#define DEEPT_BENCH_COMMON_H

#include "data/SyntheticCorpus.h"
#include "nn/Serialize.h"
#include "nn/Train.h"
#include "nn/Transformer.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "tensor/Kernels.h"
#include "verify/RadiusSearch.h"
#include "verify/Scheduler.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace deept {
namespace bench {

using tensor::Matrix;

/// Applies the shared execution flags every bench binary accepts:
/// --threads N overrides the pool size (DEEPT_THREADS and the core count
/// remain the defaults) and --isa overrides the SIMD kernel table
/// (DEEPT_ISA and CPU detection remain the defaults); malformed or
/// unavailable values abort with a clear error. Call first thing in main.
inline void applyThreadFlags(int Argc, char **Argv) {
  support::ArgParse Args(Argc, Argv);
  if (Args.has("threads")) {
    size_t Threads = 0;
    std::string Err;
    if (!support::parseThreadCount(Args.get("threads"), Threads, &Err)) {
      std::fprintf(stderr, "error: --threads %s\n", Err.c_str());
      std::exit(2);
    }
    support::ThreadPool::global().setThreadCount(Threads);
  }
  if (Args.has("isa")) {
    tensor::Isa I = tensor::Isa::Scalar;
    std::string Err;
    if (!tensor::parseIsa(Args.get("isa"), I, &Err) ||
        !tensor::setIsa(I, &Err)) {
      std::fprintf(stderr, "error: --isa %s\n", Err.c_str());
      std::exit(2);
    }
  }
}

/// The scaled-down counterpart of the paper's "standard" networks
/// (E=128, 4 heads, H=128): same shape family, CPU-sized.
inline nn::TransformerConfig standardConfig(size_t Layers) {
  nn::TransformerConfig C;
  C.MaxLen = 16;
  C.EmbedDim = 24;
  C.NumHeads = 4;
  C.HiddenDim = 24;
  C.NumLayers = Layers;
  return C;
}

/// The "wide" networks of Table 3 (paper: 2x embedding, 4x hidden).
inline nn::TransformerConfig wideConfig(size_t Layers) {
  nn::TransformerConfig C = standardConfig(Layers);
  C.EmbedDim = 48;
  C.HiddenDim = 96;
  return C;
}

/// The downscaled networks of Tables 4/5/12/14 (paper: E=64, H=64,
/// used because CROWN-Backward exhausts memory on larger ones).
inline nn::TransformerConfig smallConfig(size_t Layers) {
  nn::TransformerConfig C;
  C.MaxLen = 16;
  C.EmbedDim = 16;
  C.NumHeads = 2;
  C.HiddenDim = 16;
  C.NumLayers = Layers;
  return C;
}

/// Trains (or loads from the shared cache) a model for \p Corpus.
inline nn::TransformerModel
getModel(const std::string &Name, const data::SyntheticCorpus &Corpus,
         const nn::TransformerConfig &Config, size_t TrainSteps = 0) {
  // Wider networks need more, gentler steps to train stably.
  bool Wide = Config.EmbedDim >= 48;
  if (TrainSteps == 0)
    TrainSteps = std::max<size_t>(300, (Wide ? 120 : 60) * Config.NumLayers);
  return nn::getOrTrainCached(
      nn::defaultModelCacheDir(), Name, [&] {
        support::Rng Rng(0x5eed0 + Config.NumLayers * 7 +
                         Config.EmbedDim * 131 +
                         (Config.LayerNormStdDiv ? 1 : 0));
        nn::TransformerModel M =
            nn::TransformerModel::init(Config, Corpus.embeddings(), Rng);
        support::Rng DataRng(0xda7a);
        auto Train = Corpus.sampleDataset(512, DataRng);
        nn::TrainOptions Opts;
        Opts.Steps = TrainSteps;
        Opts.BatchSize = 16;
        if (Wide)
          Opts.LearningRate = 1e-3;
        nn::trainTransformer(M, Corpus, Train, Opts);
        return M;
      });
}

/// The robustly trained 3-layer model of Tables 8 and 9 (synonym-swap +
/// embedding-noise augmentation standing in for the paper's certified
/// training; see DESIGN.md), loaded from or trained into the shared cache.
inline nn::TransformerModel
synonymRobustModel(const data::SyntheticCorpus &Corpus) {
  return nn::getOrTrainCached(
      nn::defaultModelCacheDir(), "synonym_robust_m3", [&] {
        support::Rng Rng(0xb0b);
        nn::TransformerModel M = nn::TransformerModel::init(
            standardConfig(3), Corpus.embeddings(), Rng);
        support::Rng DataRng(0xda7a);
        auto Train = Corpus.sampleDataset(512, DataRng);
        nn::TrainOptions Opts;
        Opts.Steps = 350;
        Opts.BatchSize = 16;
        Opts.SynonymSwapProb = 0.8;
        Opts.EmbedNoise = 0.03;
        nn::trainTransformer(M, Corpus, Train, Opts);
        return M;
      });
}

/// Picks \p Count evaluation sentences classified correctly by every
/// model (so per-model radii are comparable, as in Section 6.1).
inline std::vector<data::Sentence>
pickEvalSentences(const data::SyntheticCorpus &Corpus,
                  const std::vector<const nn::TransformerModel *> &Models,
                  size_t Count, uint64_t Seed = 0xe7a1) {
  support::Rng Rng(Seed);
  std::vector<data::Sentence> Out;
  for (int Guard = 0; Guard < 4000 && Out.size() < Count; ++Guard) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    bool Ok = true;
    for (const nn::TransformerModel *M : Models)
      Ok = Ok && M->classify(S.Tokens) == S.Label;
    if (Ok)
      Out.push_back(std::move(S));
  }
  return Out;
}

/// Certification callback: should return true when the lp region of the
/// given radius around (sentence, word position) is certified.
using CertifyFn = std::function<bool(const data::Sentence &S, size_t Word,
                                     double P, double Radius)>;

struct RadiusStats {
  double Min = 0.0;
  double Avg = 0.0;
  double SecondsPerSentence = 0.0;
  size_t Count = 0;
};

struct EvalOptions {
  /// Word positions probed per sentence (paper: all positions; here the
  /// first PositionsPerSentence to bound CPU time).
  size_t PositionsPerSentence = 1;
  verify::RadiusSearchOptions Search;

  EvalOptions() {
    Search.InitRadius = 0.05;
    Search.BisectSteps = 5;
    Search.MaxRadius = 8.0;
  }
};

/// Runs the paper's Section 6.1 protocol: binary-search the maximum
/// certified radius per (sentence, position), aggregate min/avg and
/// wall-clock seconds per sentence.
inline RadiusStats evaluateRadii(const CertifyFn &Certify,
                                 const std::vector<data::Sentence> &Eval,
                                 double P,
                                 const EvalOptions &Opts = EvalOptions()) {
  RadiusStats Stats;
  Stats.Min = 1e300;
  support::Timer Timer;
  for (const data::Sentence &S : Eval) {
    size_t Positions = std::min(Opts.PositionsPerSentence, S.Tokens.size());
    for (size_t W = 0; W < Positions; ++W) {
      double R = verify::certifiedRadius(
          [&](double Radius) { return Certify(S, W, P, Radius); },
          Opts.Search);
      Stats.Min = std::min(Stats.Min, R);
      Stats.Avg += R;
      ++Stats.Count;
    }
  }
  if (Stats.Count > 0)
    Stats.Avg /= static_cast<double>(Stats.Count);
  if (Stats.Min == 1e300)
    Stats.Min = 0.0;
  Stats.SecondsPerSentence =
      Eval.empty() ? 0.0 : Timer.seconds() / static_cast<double>(Eval.size());
  return Stats;
}

/// The Section 6.1 protocol through the production path: every
/// (sentence, position) pair becomes a radius-search job on the
/// verify::Scheduler, which fans the batch out over the shared pool
/// (outer-loop parallelism; per-job radii stay bit-identical to the
/// serial evaluateRadii above). Jobs that error surface as radius 0 and
/// a stderr note rather than aborting the table.
inline RadiusStats
evaluateRadiiScheduled(const nn::TransformerModel &Model,
                       verify::JobMethod Method,
                       const std::vector<data::Sentence> &Eval, double P,
                       const EvalOptions &Opts = EvalOptions(),
                       size_t NoiseReductionBudget = 600) {
  verify::JobQueue Queue;
  for (const data::Sentence &S : Eval) {
    size_t Positions = std::min(Opts.PositionsPerSentence, S.Tokens.size());
    for (size_t W = 0; W < Positions; ++W) {
      verify::JobSpec J;
      J.Tokens = S.Tokens;
      J.TrueClass = S.Label;
      J.Word = W;
      J.P = P;
      J.SearchRadius = true;
      J.Search = Opts.Search;
      J.Method = Method;
      J.NoiseReductionBudget = NoiseReductionBudget;
      Queue.push(std::move(J));
    }
  }
  support::Timer Timer;
  verify::Scheduler Sched(Model);
  std::vector<verify::JobResult> Results = Sched.run(Queue);
  RadiusStats Stats;
  Stats.Min = 1e300;
  for (const verify::JobResult &R : Results) {
    if (R.Status == verify::JobStatus::Error)
      std::fprintf(stderr, "warning: job %s failed: %s\n", R.Key.c_str(),
                   R.Error.c_str());
    Stats.Min = std::min(Stats.Min, R.Radius);
    Stats.Avg += R.Radius;
    ++Stats.Count;
  }
  if (Stats.Count > 0)
    Stats.Avg /= static_cast<double>(Stats.Count);
  if (Stats.Min == 1e300)
    Stats.Min = 0.0;
  Stats.SecondsPerSentence =
      Eval.empty() ? 0.0 : Timer.seconds() / static_cast<double>(Eval.size());
  return Stats;
}

inline std::string normName(double P) {
  if (P == 1.0)
    return "l1";
  if (P == 2.0)
    return "l2";
  return "linf";
}

inline void printHeader(const char *Title, const char *PaperRef) {
  std::printf("== %s ==\n(reproduces %s; scaled-down models, see "
              "DESIGN.md/EXPERIMENTS.md)\n\n",
              Title, PaperRef);
}

/// Re-emits a printed table as BENCH_<Id>.json in the working directory,
/// bundling a snapshot of the metrics registry, so bench runs are
/// diffable by machines as well as eyes. Cells that fully parse as
/// numbers become JSON numbers; everything else stays a string.
inline bool writeBenchJson(const std::string &Id, const support::Table &T) {
  std::string Path = "BENCH_" + Id + ".json";
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  auto Cell = [](const std::string &S) {
    char *End = nullptr;
    double V = std::strtod(S.c_str(), &End);
    if (End != S.c_str() && End && *End == '\0')
      return support::jsonNumber(V);
    return "\"" + support::jsonEscape(S) + "\"";
  };
  const std::vector<std::vector<std::string>> &Rows = T.rows();
  Out << "{\"bench\":\"" << support::jsonEscape(Id) << "\",\"columns\":[";
  if (!Rows.empty())
    for (size_t C = 0; C < Rows[0].size(); ++C)
      Out << (C ? "," : "") << "\"" << support::jsonEscape(Rows[0][C])
          << "\"";
  Out << "],\"rows\":[";
  for (size_t R = 1; R < Rows.size(); ++R) {
    Out << (R > 1 ? "," : "") << "[";
    for (size_t C = 0; C < Rows[R].size(); ++C)
      Out << (C ? "," : "") << Cell(Rows[R][C]);
    Out << "]";
  }
  Out << "],\"threads\":" << support::ThreadPool::global().threadCount()
      << ",\"isa\":\"" << tensor::isaName(tensor::currentIsa())
      << "\",\"metrics\":" << support::Metrics::global().toJson() << "}\n";
  if (!Out)
    return false;
  std::printf("\n[wrote %s]\n", Path.c_str());
  return true;
}

} // namespace bench
} // namespace deept

#endif // DEEPT_BENCH_COMMON_H
