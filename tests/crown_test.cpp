//===- tests/crown_test.cpp -----------------------------------*- C++ -*-===//
//
// Tests for the CROWN baseline: relaxation envelopes, graph lowering
// fidelity, backsubstitution soundness and the Backward/BaF precision
// ordering.
//
//===----------------------------------------------------------------------===//

#include "crown/Backward.h"
#include "crown/CrownVerifier.h"
#include "crown/Relaxations.h"
#include "crown/TransformerGraph.h"

#include "nn/Train.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace deept;
using namespace deept::crown;
using tensor::Matrix;

namespace {

struct Fixture {
  data::SyntheticCorpus Corpus;
  nn::TransformerModel Model;
  std::vector<data::Sentence> Test;

  Fixture() : Corpus(data::CorpusConfig::sstLike(16)) {
    support::Rng Rng(900);
    nn::TransformerConfig C;
    C.MaxLen = 12;
    C.EmbedDim = 16;
    C.NumHeads = 2;
    C.HiddenDim = 16;
    C.NumLayers = 2;
    Model = nn::TransformerModel::init(C, Corpus.embeddings(), Rng);
    support::Rng DataRng(901);
    auto Train = Corpus.sampleDataset(192, DataRng);
    Test = Corpus.sampleDataset(12, DataRng);
    nn::TrainOptions Opts;
    Opts.Steps = 100;
    Opts.BatchSize = 8;
    nn::trainTransformer(Model, Corpus, Train, Opts);
  }
};

const Fixture &fixture() {
  static Fixture F;
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Relaxations
//===----------------------------------------------------------------------===//

TEST(CrownRelaxations, UnaryEnvelopesHoldOnGrid) {
  struct Case {
    UnaryFn Fn;
    double (*F)(double);
    double L, U;
  };
  Case Cases[] = {
      {UnaryFn::Relu, [](double X) { return X > 0 ? X : 0.0; }, -2.0, 3.0},
      {UnaryFn::Relu, [](double X) { return X > 0 ? X : 0.0; }, -3.0, 1.0},
      {UnaryFn::Tanh, [](double X) { return std::tanh(X); }, -2.0, 1.5},
      {UnaryFn::Tanh, [](double X) { return std::tanh(X); }, 0.2, 2.0},
      {UnaryFn::Tanh, [](double X) { return std::tanh(X); }, -2.0, -0.1},
      {UnaryFn::Exp, [](double X) { return std::exp(X); }, -1.5, 2.0},
      {UnaryFn::Recip, [](double X) { return 1.0 / X; }, 0.4, 7.0},
      {UnaryFn::Sqrt, [](double X) { return std::sqrt(X); }, 0.2, 9.0},
  };
  for (const Case &C : Cases) {
    TwoLines T = unaryLines(C.Fn, C.L, C.U);
    for (int I = 0; I <= 300; ++I) {
      double X = C.L + (C.U - C.L) * I / 300.0;
      double Y = C.F(X);
      EXPECT_LE(T.LowerSlope * X + T.LowerOffset, Y + 1e-9);
      EXPECT_GE(T.UpperSlope * X + T.UpperOffset, Y - 1e-9);
    }
  }
}

TEST(CrownRelaxations, McCormickEnvelopesHoldOnGrid) {
  struct Box {
    double LX, UX, LY, UY;
  };
  Box Boxes[] = {
      {-1, 2, -3, 1}, {0.5, 2, 1, 4}, {-2, -0.5, -1, 3}, {-1, 1, -1, 1}};
  for (const Box &B : Boxes) {
    MulLines M = mulLines(B.LX, B.UX, B.LY, B.UY);
    for (int I = 0; I <= 20; ++I) {
      for (int J = 0; J <= 20; ++J) {
        double X = B.LX + (B.UX - B.LX) * I / 20.0;
        double Y = B.LY + (B.UY - B.LY) * J / 20.0;
        double Z = X * Y;
        EXPECT_LE(M.ALo * X + M.BLo * Y + M.CLo, Z + 1e-9);
        EXPECT_GE(M.AUp * X + M.BUp * Y + M.CUp, Z - 1e-9);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Backsubstitution basics
//===----------------------------------------------------------------------===//

TEST(CrownBackward, ExactOnAffineChain) {
  // y = (x W1 + b1) W2 + b2 over an linf box: CROWN is exact for affine
  // graphs (matches direct interval computation of the composed map).
  support::Rng Rng(1);
  InputSpec Spec;
  Spec.Center = Matrix::randn(1, 4, Rng);
  Spec.P = Matrix::InfNorm;
  Spec.Radius = Matrix(1, 4, 0.1);
  Graph G;
  int X = G.addInput(Spec);
  Matrix W1 = Matrix::randn(4, 3, Rng), B1 = Matrix::randn(1, 3, Rng);
  Matrix W2 = Matrix::randn(3, 2, Rng), B2 = Matrix::randn(1, 2, Rng);
  int H = G.addAffine(X, W1, B1);
  int Y = G.addAffine(H, W2, B2);
  BackwardOptions Opts;
  BackwardResult R = computeBounds(G, Y, Opts);
  Matrix W = tensor::matmul(W1, W2);
  Matrix Center =
      tensor::addRowBroadcast(tensor::matmul(Spec.Center, W),
                              tensor::matmul(B1, W2) + B2);
  for (size_t C = 0; C < 2; ++C) {
    double Rad = 0.0;
    for (size_t I = 0; I < 4; ++I)
      Rad += std::fabs(W.at(I, C)) * 0.1;
    EXPECT_NEAR(R.Lo.at(0, C), Center.at(0, C) - Rad, 1e-9);
    EXPECT_NEAR(R.Hi.at(0, C), Center.at(0, C) + Rad, 1e-9);
  }
}

TEST(CrownBackward, LpBallConcretizationUsesDualNorm) {
  // One affine layer over an l2 ball: bounds are center +- eps ||w||_2.
  support::Rng Rng(2);
  InputSpec Spec;
  Spec.Center = Matrix::randn(1, 5, Rng);
  Spec.P = 2.0;
  Spec.Radius = Matrix(1, 5, 0.3);
  Graph G;
  int X = G.addInput(Spec);
  Matrix W = Matrix::randn(5, 1, Rng);
  int Y = G.addAffine(X, W, Matrix(1, 1));
  BackwardResult R = computeBounds(G, Y, BackwardOptions());
  double Center = 0.0, NormSq = 0.0;
  for (size_t I = 0; I < 5; ++I) {
    Center += Spec.Center.flat(I) * W.at(I, 0);
    NormSq += W.at(I, 0) * W.at(I, 0);
  }
  EXPECT_NEAR(R.Lo.at(0, 0), Center - 0.3 * std::sqrt(NormSq), 1e-9);
  EXPECT_NEAR(R.Hi.at(0, 0), Center + 0.3 * std::sqrt(NormSq), 1e-9);
}

TEST(CrownBackward, SoundThroughNonlinearChain) {
  support::Rng Rng(3);
  InputSpec Spec;
  Spec.Center = Matrix::randn(1, 3, Rng);
  Spec.P = Matrix::InfNorm;
  Spec.Radius = Matrix(1, 3, 0.2);
  Graph G;
  int X = G.addInput(Spec);
  Matrix W = Matrix::randn(3, 3, Rng);
  int H = G.addAffine(X, W, Matrix::randn(1, 3, Rng));
  int R1 = G.addUnary(H, UnaryFn::Relu);
  int M = G.addMul(R1, H);
  int T = G.addUnary(M, UnaryFn::Tanh);
  BackwardOptions Opts;
  ASSERT_TRUE(computeAllBounds(G, Opts));
  BackwardResult R = computeBounds(G, T, Opts);
  for (int I = 0; I < 200; ++I) {
    Matrix XV = Spec.Center;
    for (size_t C = 0; C < 3; ++C)
      XV.flat(C) += Rng.uniform(-0.2, 0.2);
    Matrix Out = G.evaluate(XV).back();
    for (size_t C = 0; C < 3; ++C) {
      EXPECT_GE(Out.flat(C), R.Lo.flat(C) - 1e-9);
      EXPECT_LE(Out.flat(C), R.Hi.flat(C) + 1e-9);
    }
  }
}

TEST(CrownBackward, MemoryBudgetAborts) {
  support::Rng Rng(4);
  InputSpec Spec;
  Spec.Center = Matrix::randn(1, 32, Rng);
  Spec.P = Matrix::InfNorm;
  Spec.Radius = Matrix(1, 32, 0.1);
  Graph G;
  int X = G.addInput(Spec);
  int H = X;
  for (int L = 0; L < 4; ++L)
    H = G.addUnary(G.addAffine(H, Matrix::randn(32, 32, Rng),
                               Matrix(1, 32)),
                   UnaryFn::Relu);
  BackwardOptions Opts;
  Opts.MemoryBudgetBytes = 1024; // absurdly small
  size_t Peak = 0;
  EXPECT_FALSE(computeAllBounds(G, Opts, &Peak));
  EXPECT_GT(Peak, 1024u);
}

//===----------------------------------------------------------------------===//
// Transformer graph lowering
//===----------------------------------------------------------------------===//

TEST(CrownTransformer, GraphEvaluatesToModelLogits) {
  const Fixture &F = fixture();
  for (bool StdDiv : {false}) {
    (void)StdDiv;
    const data::Sentence &S = F.Test[0];
    Matrix X = F.Model.embed(S.Tokens);
    InputSpec Spec = lpBallSpec(F.Model, S.Tokens, 0, 2.0, 0.0);
    BuiltGraph Built =
        buildTransformerGraph(F.Model, S.Tokens.size(), Spec, S.Label);
    auto Vals = Built.G.evaluate(X.reshaped(1, X.size()));
    Matrix Logits = F.Model.forwardEmbeddings(X);
    EXPECT_TRUE(tensor::allClose(Vals[Built.Logits], Logits, 1e-9));
    double Margin =
        Logits.at(0, S.Label) - Logits.at(0, 1 - S.Label);
    EXPECT_NEAR(Vals[Built.Margin].at(0, 0), Margin, 1e-9);
  }
}

TEST(CrownTransformer, StdLayerNormGraphEvaluates) {
  support::Rng Rng(902);
  const Fixture &F = fixture();
  nn::TransformerConfig C = F.Model.Config;
  C.LayerNormStdDiv = true;
  nn::TransformerModel M =
      nn::TransformerModel::init(C, F.Corpus.embeddings(), Rng);
  const data::Sentence &S = F.Test[1];
  Matrix X = M.embed(S.Tokens);
  InputSpec Spec = lpBallSpec(M, S.Tokens, 0, 2.0, 0.0);
  BuiltGraph Built =
      buildTransformerGraph(M, S.Tokens.size(), Spec, S.Label);
  auto Vals = Built.G.evaluate(X.reshaped(1, X.size()));
  EXPECT_TRUE(
      tensor::allClose(Vals[Built.Logits], M.forwardEmbeddings(X), 1e-9));
}

namespace {

/// Samples the lp ball and checks each concrete margin against the
/// verifier's bounds: CROWN-Backward's margin bounds from a full
/// backsubstitution of the graph, CROWN-BaF's lower bound from the
/// CrownVerifier that ships it.
void checkCrownSoundness(CrownMode Mode, uint64_t Seed) {
  const Fixture &F = fixture();
  CrownConfig Cfg;
  Cfg.Mode = Mode;
  const data::Sentence &S = F.Test[2];
  Matrix X = F.Model.embed(S.Tokens);
  size_t Pred = F.Model.forwardEmbeddings(X).argmax();
  double Radius = 0.02;
  for (double P : {1.0, 2.0, Matrix::InfNorm}) {
    double Lo = 0.0, Hi = HUGE_VAL;
    if (Mode == CrownMode::Backward) {
      InputSpec Spec = lpBallSpec(F.Model, S.Tokens, 1, P, Radius);
      BuiltGraph Built =
          buildTransformerGraph(F.Model, S.Tokens.size(), Spec, Pred);
      BackwardOptions Opts;
      ASSERT_TRUE(computeAllBounds(Built.G, Opts));
      BackwardResult R = computeBounds(Built.G, Built.Margin, Opts);
      Lo = R.Lo.at(0, 0);
      Hi = R.Hi.at(0, 0);
    } else {
      CrownOutcome O = CrownVerifier(F.Model, Cfg)
                           .certifyMarginLpBall(S.Tokens, 1, P, Radius, Pred);
      ASSERT_FALSE(O.OutOfMemory);
      Lo = O.MarginLowerBound;
    }
    // Sample embeddings in the ball and compare concrete margins.
    support::Rng Rng(Seed);
    zono::Zonotope Ball = zono::Zonotope::lpBallOnRow(X, 1, P, Radius);
    for (int I = 0; I < 15; ++I) {
      Matrix XP = Ball.sample(Rng, I % 2 == 0);
      Matrix L = F.Model.forwardEmbeddings(XP);
      double Margin = L.at(0, Pred) - L.at(0, 1 - Pred);
      EXPECT_GE(Margin, Lo - 1e-7);
      EXPECT_LE(Margin, Hi + 1e-7);
    }
  }
}

} // namespace

TEST(CrownTransformer, BackwardSoundOnSamples) {
  checkCrownSoundness(CrownMode::Backward, 903);
}

TEST(CrownTransformer, BaFSoundOnSamples) {
  checkCrownSoundness(CrownMode::BaF, 904);
}

TEST(CrownTransformer, BackwardAtLeastAsPreciseAsBaF) {
  const Fixture &F = fixture();
  const data::Sentence &S = F.Test[3];
  size_t Pred = F.Model.classify(S.Tokens);
  CrownConfig Back;
  Back.Mode = CrownMode::Backward;
  CrownConfig BaF;
  BaF.Mode = CrownMode::BaF;
  double MB = CrownVerifier(F.Model, Back)
                  .certifyMarginLpBall(S.Tokens, 0, 2.0, 0.02, Pred)
                  .MarginLowerBound;
  double MF = CrownVerifier(F.Model, BaF)
                  .certifyMarginLpBall(S.Tokens, 0, 2.0, 0.02, Pred)
                  .MarginLowerBound;
  EXPECT_GE(MB, MF - 1e-9);
}

TEST(CrownTransformer, VerifierMemoryBudgetReportsOOM) {
  const Fixture &F = fixture();
  const data::Sentence &S = F.Test[4];
  size_t Pred = F.Model.classify(S.Tokens);
  CrownConfig Cfg;
  Cfg.Mode = CrownMode::Backward;
  Cfg.MemoryBudgetBytes = 10 * 1024;
  CrownOutcome O = CrownVerifier(F.Model, Cfg)
                       .certifyMarginLpBall(S.Tokens, 0, 2.0, 0.01, Pred);
  EXPECT_TRUE(O.OutOfMemory);
}

TEST(CrownTransformer, SynonymBoxCertificationRuns) {
  const Fixture &F = fixture();
  CrownVerifier V(F.Model);
  int Agree = 0, Total = 0;
  for (int Case = 0; Case < 4; ++Case) {
    const data::Sentence &S = F.Test[Case];
    if (F.Model.classify(S.Tokens) != S.Label)
      continue;
    ++Total;
    CrownOutcome O = V.certifyMarginSynonymBox(F.Corpus, S, S.Label);
    EXPECT_FALSE(O.OutOfMemory);
    Agree += O.MarginLowerBound > 0;
  }
  EXPECT_GT(Total, 0);
  (void)Agree; // certification success depends on training; soundness is
               // covered by the sampling tests above
}
