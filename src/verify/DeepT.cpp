//===- verify/DeepT.cpp ---------------------------------------*- C++ -*-===//

#include "verify/DeepT.h"

#include "support/Fault.h"
#include "support/Metrics.h"
#include "zono/Elementwise.h"
#include "zono/Reduction.h"
#include "zono/Refinement.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace deept;
using namespace deept::verify;
using namespace deept::zono;
using tensor::Matrix;

namespace {

/// The abstract layer normalisation. The paper's default (Section 3.1)
/// subtracts the row mean, scales and shifts -- all exact affine steps.
/// The standard variant (Section 6.6) additionally divides by the
/// standard deviation, which needs the multiplication, sqrt and
/// reciprocal transformers.
Zonotope abstractLayerNorm(const Zonotope &V, const Matrix &Gamma,
                           const Matrix &Beta, bool StdDiv, double LnEps,
                           const DotOptions &Mul, double ElementwiseEps) {
  if (StdDiv) {
    Zonotope Centered = V.subRowMean();
    Zonotope Sq = mulElementwise(Centered, Centered, Mul);
    Zonotope Var = Sq.rowMeans().addConst(Matrix(V.rows(), 1, LnEps));
    Zonotope InvStd = applyRecip(applySqrt(Var), ElementwiseEps);
    Centered = mulElementwise(Centered, InvStd.broadcastColTo(V.cols()), Mul);
    return Centered.scaleColumns(Gamma).addRowBroadcast(Beta);
  }
  // Paper-default path: (x - mean) * gamma fused into one coefficient
  // pass (bit-identical to subRowMean().scaleColumns()).
  return V.subRowMeanScale(Gamma).addRowBroadcast(Beta);
}

} // namespace

Zonotope DeepTVerifier::propagate(const Zonotope &InputEmb) const {
  const ObserverList &Obs = Config.Observers;
  Stage Propagate(Obs, "deept.propagate");
  support::Metrics &MR = support::Metrics::global();
  static support::Counter &Calls = MR.counter("verify.propagate.calls");
  Calls.add(1);

  const nn::TransformerConfig &C = Model.Config;
  assert(InputEmb.cols() == C.EmbedDim && "embedding width mismatch");
  size_t A = C.NumHeads;
  size_t Dk = C.headDim();
  double Scale = 1.0 / std::sqrt(static_cast<double>(Dk));

  // Storage-shape peaks over the checkpointed zonotopes, mirrored into
  // the registry per layer and per propagation.
  size_t PeakEps = 0, PeakCoeffBytes = 0, LayerPeakEps = 0;
  auto NotePeaks = [&](const Zonotope &Z) {
    PeakEps = std::max(PeakEps, Z.numEps());
    PeakCoeffBytes = std::max(PeakCoeffBytes, Z.coeffBytes());
    LayerPeakEps = std::max(LayerPeakEps, Z.numEps());
  };

  SoftmaxOptions SoftOpts;
  SoftOpts.ElementwiseEps = Config.ElementwiseEps;
  SoftOpts.StableRewrite = Config.StableSoftmax;

  // One refinement scratch for the whole propagation: the per-head refine
  // calls (layers x heads of them) then reuse the breakpoint and
  // constraint buffers at their high-water capacity.
  RefinementScratch RefineScratch;

  Zonotope X = InputEmb;
  // Fault site for the robustness drills: injects a NaN/Inf into the
  // input center so the soundness guards must turn it into a structured
  // error (never a certificate).
  DEEPT_FAULT_CORRUPT("verify.propagate", X.center().data(),
                      X.center().size());
  for (size_t L = 0; L < Model.Layers.size(); ++L) {
    int Li = static_cast<int>(L);
    // Enters the layer: delivers onLayer before any of the layer's work.
    Stage LayerStage(Obs, "deept.layer", Li);
    double EpsCreatedBefore = MR.counterValue("zono.eps_symbols.created");
    LayerPeakEps = 0;
    const nn::TransformerLayer &Layer = Model.Layers[L];
    bool LastLayer = L + 1 == Model.Layers.size();

    DotOptions Dot;
    Dot.Order = Config.Order;
    Dot.Method = Config.Method;
    if (Config.PreciseLastLayerOnly)
      Dot.Method = LastLayer ? DotMethod::Precise : DotMethod::Fast;
    SoftOpts.Mul = Dot;

    // Noise symbol reduction at the layer input (Section 5.1), where a
    // single tensor is live, so re-indexing the eps space is safe.
    {
      Stage S(Obs, "deept.noise_reduction", Li, -1, "noise_reduction");
      size_t Budget = Config.NoiseReductionBudget;
      if (LastLayer && Config.NoiseReductionBudgetLastLayer > 0)
        Budget = Config.NoiseReductionBudgetLastLayer;
      if (Budget > 0)
        reduceEpsSymbols(X, Budget);
    }
    LayerStage.checkpoint(X, "verify.layer_input");
    NotePeaks(X);

    // Multi-head self-attention (Eq. 1).
    Zonotope Q, K, V;
    {
      Stage S(Obs, "deept.attention.qkv", Li);
      Q = X.matmulRightConst(Layer.Wq).addRowBroadcast(Layer.Bq);
      K = X.matmulRightConst(Layer.Wk).addRowBroadcast(Layer.Bk);
      V = X.matmulRightConst(Layer.Wv).addRowBroadcast(Layer.Bv);
    }

    std::vector<Zonotope> Heads;
    Heads.reserve(A);
    for (size_t H = 0; H < A; ++H) {
      int Hd = static_cast<int>(H);
      Stage HeadStage(Obs, "deept.attention.head", Li, Hd);
      Zonotope Qh = Q.selectColRange(H * Dk, (H + 1) * Dk);
      Zonotope Kh = K.selectColRange(H * Dk, (H + 1) * Dk);
      Zonotope Vh = V.selectColRange(H * Dk, (H + 1) * Dk);
      Zonotope Scores;
      {
        Stage S(Obs, "deept.attention.scores", Li, Hd, "attention.scores");
        Scores = dotRows(Qh, Kh, Dot).scale(Scale);
      }
      HeadStage.checkpoint(Scores, "verify.attention.scores");
      NotePeaks(Scores);
      Zonotope Probs;
      {
        Stage S(Obs, "deept.attention.softmax", Li, Hd, "softmax");
        Probs = applySoftmax(Scores, SoftOpts);
      }
      if (Config.SoftmaxSumRefinement) {
        Stage S(Obs, "deept.attention.refine", Li, Hd, "softmax");
        // Symbol-range rewrites must reach every tensor still in use --
        // including the already-sliced value tensor Vh that the
        // attention output multiplies Probs with.
        std::vector<Zonotope *> CoLive = {&X, &Q, &K, &V, &Vh};
        for (Zonotope &Prev : Heads)
          CoLive.push_back(&Prev);
        refineSoftmaxSum(Probs, CoLive, RefinementOptions(), &RefineScratch);
      }
      // Attention output: Probs (N x N) times Vh (N x dk); rows of Probs
      // dotted with columns of Vh, i.e. rows of Vh transposed.
      {
        Stage S(Obs, "deept.attention.output", Li, Hd, "attention.output");
        Heads.push_back(dotRows(Probs, Vh.transposedView(), Dot));
      }
      HeadStage.checkpoint(Heads.back(), "verify.attention.output");
      NotePeaks(Heads.back());
    }
    Zonotope X1;
    {
      Stage S(Obs, "deept.attention.proj_norm", Li, -1, "layer_norm");
      Zonotope Concat = Zonotope::concatCols(Heads);
      Zonotope Z =
          Concat.matmulRightConst(Layer.Wo).addRowBroadcast(Layer.Bo);
      // Residual connection; X is reassigned below, so add into its storage.
      Zonotope V1 = std::move(X).add(Z);
      X1 = abstractLayerNorm(V1, Layer.Ln1Gamma, Layer.Ln1Beta,
                             C.LayerNormStdDiv, C.LnEps, Dot,
                             Config.ElementwiseEps);
    }

    // Feed-forward block with its residual connection.
    {
      Stage S(Obs, "deept.ffn", Li, -1, "ffn");
      Zonotope Hid = applyRelu(
          X1.matmulRightConst(Layer.W1).addRowBroadcast(Layer.B1));
      Zonotope F = Hid.matmulRightConst(Layer.W2).addRowBroadcast(Layer.B2);
      Zonotope V2 = std::move(X1).add(F);
      X = abstractLayerNorm(V2, Layer.Ln2Gamma, Layer.Ln2Beta,
                            C.LayerNormStdDiv, C.LnEps, Dot,
                            Config.ElementwiseEps);
    }
    LayerStage.checkpoint(X, "verify.layer_output");
    NotePeaks(X);
    MR.histogram("verify.layer.eps_created")
        .observe(MR.counterValue("zono.eps_symbols.created") -
                 EpsCreatedBefore);
    MR.histogram("verify.layer.peak_eps_symbols")
        .observe(static_cast<double>(LayerPeakEps));
  }

  // Pooling (first output embedding), tanh layer, binary classifier.
  Zonotope Logits;
  {
    Stage S(Obs, "deept.pooler", -1, -1, "pooler");
    Zonotope Pooled = X.selectRow(0);
    Zonotope T = applyTanh(
        Pooled.matmulRightConst(Model.PoolW).addRowBroadcast(Model.PoolB));
    Logits = T.matmulRightConst(Model.ClsW).addRowBroadcast(Model.ClsB);
  }
  Propagate.checkpoint(Logits, "verify.logits");
  NotePeaks(Logits);

  MR.gauge("verify.propagate.peak_eps_symbols")
      .recordMax(static_cast<double>(PeakEps));
  MR.gauge("verify.propagate.peak_coeff_bytes")
      .recordMax(static_cast<double>(PeakCoeffBytes));
  return Logits;
}

double DeepTVerifier::certifyMargin(const Zonotope &InputEmb,
                                    size_t TrueClass) const {
  assert(TrueClass < 2 && "binary classification");
  RunInfo Info;
  Info.TrueClass = TrueClass;
  Info.Layers = Model.Layers.size();
  Info.Embed = Model.Config.EmbedDim;
  Info.Heads = Model.Config.NumHeads;
  RunScope Run(Config.Observers, Info, InputEmb);
  return marginOf(Config.Observers, propagate(InputEmb), TrueClass);
}

bool DeepTVerifier::certifyLpBall(const std::vector<size_t> &Tokens,
                                  size_t Word, double P, double Radius,
                                  size_t TrueClass) const {
  Matrix X = Model.embed(Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, Word, P, Radius);
  return certifyMargin(In, TrueClass) > 0.0;
}

Zonotope DeepTVerifier::synonymBox(const data::SyntheticCorpus &Corpus,
                                   const data::Sentence &S) const {
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
  return Zonotope::box(Lo, Hi);
}

bool DeepTVerifier::certifySynonymBox(const data::SyntheticCorpus &Corpus,
                                      const data::Sentence &S,
                                      size_t TrueClass) const {
  return certifyMargin(synonymBox(Corpus, S), TrueClass) > 0.0;
}
