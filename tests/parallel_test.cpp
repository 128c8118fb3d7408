//===- tests/parallel_test.cpp - Thread pool and determinism ---*- C++ -*-===//
//
// Tests of the execution layer: parallelFor index coverage, bit-exact
// equivalence of the tiled GEMM kernels with a scalar reference, and the
// determinism contract -- certified margins must be bit-identical at any
// thread count.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tensor/Kernels.h"
#include "tensor/Matrix.h"
#include "verify/DeepT.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

using namespace deept;
using testhelp::ScopedThreads;
using tensor::Matrix;

namespace {

/// Pins the SIMD kernel table for a scope (tests comparing against
/// ascending-k scalar references must run the scalar table; wide-ISA
/// reductions are lane-reassociated and only bit-stable within an ISA).
class ScopedIsa {
public:
  explicit ScopedIsa(tensor::Isa I) : Prev(tensor::currentIsa()) {
    EXPECT_TRUE(tensor::setIsa(I));
  }
  ~ScopedIsa() { tensor::setIsa(Prev); }

private:
  tensor::Isa Prev;
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  struct Case {
    size_t Begin, End, Grain;
  };
  const Case Cases[] = {{0, 1000, 1},  {0, 1000, 7},   {0, 1000, 1000},
                        {0, 1000, 5000}, {3, 17, 4},   {10, 10, 8},
                        {0, 1, 1},       {5, 1024, 64}, {0, 100000, 1024}};
  for (size_t Threads : {1u, 2u, 8u}) {
    ScopedThreads T(Threads);
    for (const Case &C : Cases) {
      std::vector<std::atomic<int>> Hits(C.End > C.Begin ? C.End : 1);
      for (auto &H : Hits)
        H.store(0);
      support::parallelFor(C.Begin, C.End, C.Grain,
                           [&](size_t I0, size_t I1) {
                             ASSERT_LE(I0, I1);
                             for (size_t I = I0; I < I1; ++I)
                               Hits[I].fetch_add(1);
                           });
      for (size_t I = 0; I < Hits.size(); ++I)
        EXPECT_EQ(Hits[I].load(), I >= C.Begin && I < C.End ? 1 : 0)
            << "index " << I << " begin " << C.Begin << " end " << C.End
            << " grain " << C.Grain << " threads " << Threads;
    }
  }
}

TEST(ParallelFor, NestedCallsStaySerialAndCover) {
  ScopedThreads T(4);
  std::vector<std::atomic<int>> Hits(64 * 64);
  for (auto &H : Hits)
    H.store(0);
  support::parallelFor(0, 64, 4, [&](size_t I0, size_t I1) {
    for (size_t I = I0; I < I1; ++I)
      support::parallelFor(0, 64, 4, [&](size_t J0, size_t J1) {
        for (size_t J = J0; J < J1; ++J)
          Hits[I * 64 + J].fetch_add(1);
      });
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelFor, PoolTasksCounterAdvances) {
  ScopedThreads T(2);
  support::Counter &Tasks = support::Metrics::global().counter("pool.tasks");
  double Before = Tasks.value();
  support::parallelFor(0, 1000, 10, [](size_t, size_t) {});
  EXPECT_GE(Tasks.value(), Before + 100.0);
}

/// Naive triple-loop references with ascending-k accumulation: exactly
/// the summation order the tiled kernels must preserve.
Matrix refMatmul(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.cols(), 0.0);
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t K = 0; K < A.cols(); ++K)
      for (size_t J = 0; J < B.cols(); ++J)
        C.at(I, J) += A.at(I, K) * B.at(K, J);
  return C;
}

Matrix refMatmulTransposedB(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.rows(), 0.0);
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < B.rows(); ++J)
      for (size_t K = 0; K < A.cols(); ++K)
        C.at(I, J) += A.at(I, K) * B.at(J, K);
  return C;
}

Matrix refMatmulTransposedA(const Matrix &A, const Matrix &B) {
  Matrix C(A.cols(), B.cols(), 0.0);
  for (size_t I = 0; I < A.cols(); ++I)
    for (size_t K = 0; K < A.rows(); ++K)
      for (size_t J = 0; J < B.cols(); ++J)
        C.at(I, J) += A.at(K, I) * B.at(K, J);
  return C;
}

void expectBitIdentical(const Matrix &Got, const Matrix &Want,
                        const char *What, size_t Threads) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                        Got.size() * sizeof(double)),
            0)
      << What << " differs from scalar reference at " << Threads
      << " threads";
}

TEST(TiledGemm, BitIdenticalToScalarReference) {
  // The naive references accumulate ascending-k in plain double, which is
  // what the scalar table preserves; kernels_test covers the wide ISAs
  // against their lane-ordered emulations.
  ScopedIsa Isa(tensor::Isa::Scalar);
  support::Rng Rng(0xbeef);
  // Odd, non-multiple-of-block sizes exercise every remainder path of the
  // 4-row register blocking and the K tiling.
  Matrix A = Matrix::randn(37, 41, Rng);
  Matrix B = Matrix::randn(41, 23, Rng);
  Matrix Bt = B.transposed();
  Matrix RefAB = refMatmul(A, B);
  Matrix RefABt = refMatmulTransposedB(A, Bt);
  Matrix RefAtB = refMatmulTransposedA(A.transposed(), B);
  for (size_t Threads : {1u, 2u, 8u}) {
    ScopedThreads T(Threads);
    expectBitIdentical(tensor::matmul(A, B), RefAB, "matmul", Threads);
    expectBitIdentical(tensor::matmulTransposedB(A, Bt), RefABt,
                       "matmulTransposedB", Threads);
    expectBitIdentical(tensor::matmulTransposedA(A.transposed(), B), RefAtB,
                       "matmulTransposedA", Threads);
  }
}

TEST(TiledGemm, LargeShapesThreadCountInvariant) {
  support::Rng Rng(0xcafe);
  Matrix A = Matrix::randn(129, 257, Rng);
  Matrix B = Matrix::randn(257, 65, Rng);
  Matrix C1, C2;
  {
    ScopedThreads T(1);
    C1 = tensor::matmul(A, B);
  }
  {
    ScopedThreads T(8);
    C2 = tensor::matmul(A, B);
  }
  expectBitIdentical(C2, C1, "matmul(129x257x65)", 8);
}

/// Certified margins of a small Transformer under both dot-product
/// methods at several thread counts. Determinism is the hard contract of
/// the execution layer: the doubles must be identical, not merely close.
TEST(Determinism, CertifiedMarginsBitIdenticalAcrossThreadCounts) {
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  nn::TransformerConfig Cfg;
  Cfg.MaxLen = 16;
  Cfg.EmbedDim = 16;
  Cfg.NumHeads = 2;
  Cfg.HiddenDim = 16;
  Cfg.NumLayers = 2;
  support::Rng Rng(0x5eed);
  nn::TransformerModel Model =
      nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);

  support::Rng SentRng(7);
  data::Sentence S = Corpus.sampleSentence(SentRng);
  Matrix Emb = Model.embed(S.Tokens);

  for (auto Method : {zono::DotMethod::Fast, zono::DotMethod::Precise}) {
    verify::VerifierConfig VC;
    VC.Method = Method;
    VC.NoiseReductionBudget = 128;
    verify::DeepTVerifier V(Model, VC);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, 2.0, 0.05);
    double Margin1;
    {
      ScopedThreads T(1);
      Margin1 = V.certifyMargin(In, S.Label);
    }
    for (size_t Threads : {2u, 8u}) {
      ScopedThreads T(Threads);
      double MarginN = V.certifyMargin(In, S.Label);
      EXPECT_EQ(Margin1, MarginN)
          << "margin differs between 1 and " << Threads << " threads ("
          << (Method == zono::DotMethod::Fast ? "fast" : "precise") << ")";
    }
  }
}

/// Same contract against the tracked SST model used by the bench tables.
TEST(Determinism, CachedSstModelRadiiBitIdentical) {
  nn::TransformerModel Model = testhelp::loadCachedModel("sst_m12");

  data::SyntheticCorpus Corpus(
      data::CorpusConfig::sstLike(Model.Config.EmbedDim));
  support::Rng Rng(2);
  data::Sentence S = Corpus.sampleSentence(Rng);
  Matrix Emb = Model.embed(S.Tokens);

  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 256;
  verify::DeepTVerifier V(Model, VC);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, 2.0, 0.02);
  double Margin1;
  {
    ScopedThreads T(1);
    Margin1 = V.certifyMargin(In, S.Label);
  }
  for (size_t Threads : {2u, 8u}) {
    ScopedThreads T(Threads);
    EXPECT_EQ(Margin1, V.certifyMargin(In, S.Label))
        << "cached-model margin differs at " << Threads << " threads";
  }
}

} // namespace
