//===- verify/DeepT.h - The DeepT Transformer verifier ---------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DeepT: robustness certification of encoder Transformer networks with
/// the Multi-norm Zonotope domain (the paper's main artifact). The
/// verifier propagates an input-embedding zonotope through the whole
/// network (Figure 2) with the abstract transformers of Sections 4-5 and
/// proves robustness when the lower bound of y_true - y_false is positive.
///
/// Configuration covers the paper's verifier family:
///  * DeepT-Fast       -- Method = Fast (Eq. 5 dot products),
///  * DeepT-Precise    -- Method = Precise (Eq. 6 eps-eps blocks),
///  * combined DeepT   -- PreciseLastLayerOnly (Appendix A.6),
/// plus the Section 6.5/6.6/A.5 ablation switches (dual-norm order,
/// softmax sum refinement, noise reduction budget).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_DEEPT_H
#define DEEPT_VERIFY_DEEPT_H

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "verify/Observer.h"
#include "zono/DotProduct.h"
#include "zono/Softmax.h"
#include "zono/Zonotope.h"

namespace deept {
namespace verify {

using zono::Zonotope;

struct VerifierConfig {
  /// Dot-product bound for the eps-eps interaction blocks.
  zono::DotMethod Method = zono::DotMethod::Fast;
  /// Use the Precise dot product only in the last Transformer layer
  /// (the combined verifier of Appendix A.6).
  bool PreciseLastLayerOnly = false;
  /// Which operand the Eq. 5 dual norm is applied to first (Section 6.5).
  zono::DualNormOrder Order = zono::DualNormOrder::InfFirst;
  /// Softmax sum zonotope refinement (Section 5.3) on/off.
  bool SoftmaxSumRefinement = true;
  /// Keep-k eps symbols at every layer input (Section 5.1); 0 disables.
  size_t NoiseReductionBudget = 1500;
  /// Optional smaller budget for the last layer (used by the combined
  /// verifier, Appendix A.6); 0 means "same as NoiseReductionBudget".
  size_t NoiseReductionBudgetLastLayer = 0;
  /// Positivity epsilon of the exp/reciprocal transformers.
  double ElementwiseEps = 0.01;
  /// Use the stable softmax rewrite of Section 5.2 (the naive composition
  /// exists for ablations).
  bool StableSoftmax = true;
  /// Observers of every run (verify/Observer.h): precision profiles,
  /// proof certificates and the scheduler's deadline.
  /// Empty by default; observation never changes the margin.
  ObserverList Observers;
};

/// The DeepT verifier over a fixed Transformer model.
class DeepTVerifier {
public:
  explicit DeepTVerifier(const nn::TransformerModel &Model,
                         VerifierConfig Config = VerifierConfig())
      : Model(Model), Config(Config) {}

  const VerifierConfig &config() const { return Config; }
  VerifierConfig &config() { return Config; }

  /// Propagates an embedding-level zonotope (N x E, positional encodings
  /// already added) to the logits zonotope (1 x 2) through one
  /// verify::Stage per pipeline stage, delivering onLayer, onCheckpoint
  /// and onStage to the observers and validating every checkpoint.
  /// Records the verify.propagate.* instruments in support::Metrics.
  Zonotope propagate(const Zonotope &InputEmb) const;

  /// Lower bound of logits[TrueClass] - logits[1 - TrueClass] over the
  /// input region; robustness is proven when it is positive. Each call is
  /// one observer run (onRunBegin ... onRunEnd).
  double certifyMargin(const Zonotope &InputEmb, size_t TrueClass) const;

  /// Threat model T1: the embedding of \p Word (position index) is
  /// perturbed within an lp ball of radius \p Radius. Returns true when
  /// classification provably stays \p TrueClass.
  bool certifyLpBall(const std::vector<size_t> &Tokens, size_t Word,
                     double P, double Radius, size_t TrueClass) const;

  /// Threat model T2: every word may be replaced by any of its synonyms
  /// independently (an l-infinity box over the synonym embeddings per
  /// position). Returns true when the sentence is provably robust.
  bool certifySynonymBox(const data::SyntheticCorpus &Corpus,
                         const data::Sentence &S, size_t TrueClass) const;

  /// Builds the T2 input box (N x E) for a sentence.
  Zonotope synonymBox(const data::SyntheticCorpus &Corpus,
                      const data::Sentence &S) const;

private:
  const nn::TransformerModel &Model;
  VerifierConfig Config;
};

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_DEEPT_H
