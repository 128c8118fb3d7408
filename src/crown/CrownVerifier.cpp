//===- crown/CrownVerifier.cpp --------------------------------*- C++ -*-===//

#include "crown/CrownVerifier.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>

using namespace deept;
using namespace deept::crown;
using tensor::Matrix;

CrownOutcome CrownVerifier::run(BuiltGraph &&Built) const {
  support::TraceSpan RunSpan("crown.certify");
  support::Metrics &MR = support::Metrics::global();
  static support::Counter &BackwardCalls =
      MR.counter("crown.backward.calls");
  static support::Counter &BafCalls = MR.counter("crown.baf.calls");
  (Config.Mode == CrownMode::Backward ? BackwardCalls : BafCalls).add(1);

  // Intermediate bounds: full backsubstitution in Backward mode, the
  // one-pass forward linear-bound propagation in BaF mode (Shi et al.'s
  // backward & forward split). The output margin always gets a full
  // backsubstitution; BaF's precision loss on deep networks comes from
  // the increasingly loose forward bounds feeding the relaxations.
  CrownOutcome Outcome;
  size_t Peak = 0, Total = 0;
  {
    DEEPT_TRACE_SPAN("crown.intermediate_bounds");
    if (Config.Mode == CrownMode::Backward) {
      BackwardOptions Opts;
      Opts.MemoryBudgetBytes = Config.MemoryBudgetBytes;
      if (!computeAllBounds(Built.G, Opts, &Peak, &Total)) {
        Outcome.OutOfMemory = true;
        Outcome.PeakBytes = Peak;
        Outcome.TotalBytes = Total;
        MR.counter("crown.oom.count").add(1);
        return Outcome;
      }
    } else {
      ForwardOptions Opts;
      Opts.MemoryBudgetBytes = Config.MemoryBudgetBytes;
      if (!computeForwardBounds(Built.G, Opts, &Peak, &Total)) {
        Outcome.OutOfMemory = true;
        Outcome.PeakBytes = Peak;
        Outcome.TotalBytes = Total;
        MR.counter("crown.oom.count").add(1);
        return Outcome;
      }
    }
  }
  BackwardResult R;
  {
    DEEPT_TRACE_SPAN("crown.margin_backsub");
    BackwardOptions MarginOpts;
    MarginOpts.MemoryBudgetBytes = Config.MemoryBudgetBytes;
    R = computeBounds(Built.G, Built.Margin, MarginOpts);
  }
  Outcome.PeakBytes = std::max(Peak, R.PeakBytes);
  Outcome.TotalBytes = Total + R.TotalBytes;
  MR.gauge("crown.peak_bytes")
      .recordMax(static_cast<double>(Outcome.PeakBytes));
  if (R.MemoryExceeded ||
      (Config.MemoryBudgetBytes > 0 &&
       Outcome.TotalBytes > Config.MemoryBudgetBytes)) {
    Outcome.OutOfMemory = true;
    MR.counter("crown.oom.count").add(1);
    return Outcome;
  }
  Outcome.MarginLowerBound = R.Lo.at(0, 0);
  return Outcome;
}

CrownOutcome CrownVerifier::certifyMarginLpBall(
    const std::vector<size_t> &Tokens, size_t Word, double P, double Radius,
    size_t TrueClass) const {
  InputSpec Spec = lpBallSpec(Model, Tokens, Word, P, Radius);
  return run(buildTransformerGraph(Model, Tokens.size(), std::move(Spec),
                                   TrueClass));
}

CrownOutcome CrownVerifier::certifyMarginSynonymBox(
    const data::SyntheticCorpus &Corpus, const data::Sentence &S,
    size_t TrueClass) const {
  Matrix X = Model.embed(S.Tokens);
  Matrix Lo = X, Hi = X;
  for (size_t I = 0; I < S.Tokens.size(); ++I) {
    for (size_t Syn : Corpus.synonymsOf(S.Tokens[I])) {
      for (size_t C = 0; C < X.cols(); ++C) {
        double V = Corpus.embeddings().at(Syn, C) + Model.Positional.at(I, C);
        Lo.at(I, C) = std::min(Lo.at(I, C), V);
        Hi.at(I, C) = std::max(Hi.at(I, C), V);
      }
    }
  }
  return run(buildTransformerGraph(Model, S.Tokens.size(), boxSpec(Lo, Hi),
                                   TrueClass));
}
