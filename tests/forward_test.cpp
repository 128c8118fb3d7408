//===- tests/forward_test.cpp ----------------------------------*- C++ -*-===//
//
// Tests for the forward linear-bound propagation (crown/Forward): exact
// on affine graphs, sound through nonlinearities and products, memory
// accounting, and agreement with backward bounds on degenerate inputs.
//
//===----------------------------------------------------------------------===//

#include "crown/Backward.h"
#include "crown/Forward.h"
#include "crown/TransformerGraph.h"

#include "nn/Train.h"
#include "support/Rng.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace deept;
using namespace deept::crown;
using tensor::Matrix;

namespace {

InputSpec boxInput(Matrix Center, double Radius) {
  InputSpec Spec;
  Spec.Radius = Matrix(1, Center.cols(), Radius);
  Spec.Center = std::move(Center);
  Spec.P = Matrix::InfNorm;
  return Spec;
}

} // namespace

TEST(CrownForward, ExactOnAffineChain) {
  support::Rng Rng(1);
  Graph G;
  int X = G.addInput(boxInput(Matrix::randn(1, 4, Rng), 0.1));
  Matrix W1 = Matrix::randn(4, 3, Rng), B1 = Matrix::randn(1, 3, Rng);
  Matrix W2 = Matrix::randn(3, 2, Rng), B2 = Matrix::randn(1, 2, Rng);
  int H = G.addAffine(X, W1, B1);
  int Y = G.addAffine(H, W2, B2);
  ASSERT_TRUE(computeForwardBounds(G, ForwardOptions()));
  // Compare against the (exact for affine) backward bounds.
  Graph G2;
  int X2 = G2.addInput(G.inputSpec());
  int H2 = G2.addAffine(X2, W1, B1);
  int Y2 = G2.addAffine(H2, W2, B2);
  (void)H2;
  BackwardResult R = computeBounds(G2, Y2, BackwardOptions());
  EXPECT_TRUE(tensor::allClose(G.node(Y).Lo, R.Lo, 1e-9));
  EXPECT_TRUE(tensor::allClose(G.node(Y).Hi, R.Hi, 1e-9));
}

TEST(CrownForward, SoundThroughNonlinearChain) {
  support::Rng Rng(2);
  Graph G;
  Matrix Center = Matrix::randn(1, 3, Rng);
  int X = G.addInput(boxInput(Center, 0.25));
  Matrix W = Matrix::randn(3, 3, Rng);
  int H = G.addAffine(X, W, Matrix::randn(1, 3, Rng));
  int R1 = G.addUnary(H, UnaryFn::Relu);
  int M = G.addMul(R1, H);
  int T = G.addUnary(M, UnaryFn::Tanh);
  ASSERT_TRUE(computeForwardBounds(G, ForwardOptions()));
  const Node &Out = G.node(T);
  for (int I = 0; I < 300; ++I) {
    Matrix XV = Center;
    for (size_t C = 0; C < 3; ++C)
      XV.flat(C) += Rng.uniform(-0.25, 0.25);
    Matrix Val = G.evaluate(XV).back();
    for (size_t C = 0; C < 3; ++C) {
      EXPECT_GE(Val.flat(C), Out.Lo.flat(C) - 1e-9);
      EXPECT_LE(Val.flat(C), Out.Hi.flat(C) + 1e-9);
    }
  }
}

TEST(CrownForward, MemoryBudgetAborts) {
  support::Rng Rng(3);
  Graph G;
  int X = G.addInput(boxInput(Matrix::randn(1, 16, Rng), 0.1));
  int H = X;
  for (int L = 0; L < 3; ++L)
    H = G.addUnary(G.addAffine(H, Matrix::randn(16, 16, Rng),
                               Matrix(1, 16)),
                   UnaryFn::Relu);
  ForwardOptions Opts;
  Opts.MemoryBudgetBytes = 256;
  size_t Peak = 0, Total = 0;
  EXPECT_FALSE(computeForwardBounds(G, Opts, &Peak, &Total));
  EXPECT_GT(Total, 256u);
}

TEST(CrownForward, DegenerateRadiusIsExactOnTransformer) {
  support::Rng Rng(4);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  nn::TransformerConfig C;
  C.MaxLen = 12;
  C.EmbedDim = 16;
  C.NumHeads = 2;
  C.HiddenDim = 16;
  C.NumLayers = 2;
  nn::TransformerModel M =
      nn::TransformerModel::init(C, Corpus.embeddings(), Rng);
  support::Rng DataRng(5);
  data::Sentence S = Corpus.sampleSentence(DataRng);
  InputSpec Spec = lpBallSpec(M, S.Tokens, 0, 2.0, 0.0);
  BuiltGraph Built =
      buildTransformerGraph(M, S.Tokens.size(), Spec, S.Label);
  ASSERT_TRUE(computeForwardBounds(Built.G, ForwardOptions()));
  Matrix Logits = M.forwardEmbeddings(M.embed(S.Tokens));
  const Node &Out = Built.G.node(Built.Logits);
  for (size_t J = 0; J < 2; ++J) {
    EXPECT_NEAR(Out.Lo.flat(J), Logits.flat(J), 1e-6);
    EXPECT_NEAR(Out.Hi.flat(J), Logits.flat(J), 1e-6);
  }
}

TEST(CrownForward, SoundOnPerturbedTransformer) {
  support::Rng Rng(6);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  nn::TransformerConfig C;
  C.MaxLen = 12;
  C.EmbedDim = 16;
  C.NumHeads = 2;
  C.HiddenDim = 16;
  C.NumLayers = 1;
  nn::TransformerModel M =
      nn::TransformerModel::init(C, Corpus.embeddings(), Rng);
  support::Rng DataRng(7);
  data::Sentence S = Corpus.sampleSentence(DataRng);
  Matrix X = M.embed(S.Tokens);
  for (double P : {1.0, 2.0, Matrix::InfNorm}) {
    InputSpec Spec = lpBallSpec(M, S.Tokens, 0, P, 0.02);
    BuiltGraph Built =
        buildTransformerGraph(M, S.Tokens.size(), Spec, S.Label);
    ASSERT_TRUE(computeForwardBounds(Built.G, ForwardOptions()));
    const Node &Out = Built.G.node(Built.Logits);
    zono::Zonotope Ball = zono::Zonotope::lpBallOnRow(X, 0, P, 0.02);
    for (int I = 0; I < 25; ++I) {
      Matrix L = M.forwardEmbeddings(Ball.sample(Rng, I % 2 == 0));
      for (size_t J = 0; J < 2; ++J) {
        EXPECT_GE(L.flat(J), Out.Lo.flat(J) - 1e-7);
        EXPECT_LE(L.flat(J), Out.Hi.flat(J) + 1e-7);
      }
    }
  }
}

TEST(CrownForward, SharedOperandMulIsHandled) {
  // Mul(x, x) (the variance computation of standard layer norm) must not
  // double-free or misbound.
  support::Rng Rng(8);
  Graph G;
  Matrix Center = Matrix::randn(1, 3, Rng);
  int X = G.addInput(boxInput(Center, 0.2));
  int Sq = G.addMul(X, X);
  ASSERT_TRUE(computeForwardBounds(G, ForwardOptions()));
  const Node &Out = G.node(Sq);
  for (int I = 0; I < 100; ++I) {
    Matrix XV = Center;
    for (size_t C2 = 0; C2 < 3; ++C2)
      XV.flat(C2) += Rng.uniform(-0.2, 0.2);
    for (size_t C2 = 0; C2 < 3; ++C2) {
      double V = XV.flat(C2) * XV.flat(C2);
      EXPECT_GE(V, Out.Lo.flat(C2) - 1e-9);
      EXPECT_LE(V, Out.Hi.flat(C2) + 1e-9);
    }
  }
}
