//===- tests/zonotope_blocks_test.cpp - Block-storage properties -*- C++ -*-===//
//
// Property tests of the structured eps storage: every abstract transformer
// must produce bit-identical centers, coefficients and bounds whether its
// input keeps its Diag/Dense/Zero block structure or is force-densified
// first, at 1, 2 and 8 pool threads. This is the contract that lets the
// verifier skip structural zeros without changing a single certified bit.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "support/Parallel.h"
#include "support/Rng.h"
#include "zono/DotProduct.h"
#include "zono/Elementwise.h"
#include "zono/Reduction.h"
#include "zono/Refinement.h"
#include "zono/Softmax.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

using namespace deept;
using testhelp::ScopedThreads;
using tensor::Matrix;
using zono::DotOptions;
using zono::Zonotope;

namespace {

constexpr size_t R = 4, C = 6;

/// A zonotope whose eps storage genuinely mixes block kinds, built through
/// the public transformer pipeline the verifier itself uses: fresh
/// elementwise symbols arrive as Diag blocks, a right-matmul turns earlier
/// blocks Dense, and a second elementwise pass appends another Diag block.
Zonotope blockBacked(double P) {
  support::Rng Rng(0xb10c);
  Matrix Center = Matrix::randn(R, C, Rng, 0.5);
  Zonotope Z = Zonotope::lpBall(Center, P, 0.05);
  Z = applyTanh(Z);
  Matrix W = Matrix::randn(C, C, Rng, 0.4);
  Z = Z.matmulRightConst(W);
  Z = applyTanh(Z);
  return Z;
}

/// The same abstract value with every block folded into the leading dense
/// matrix (epsCoeffs() densifies on access).
Zonotope densified(const Zonotope &Z) {
  Zonotope D = Z;
  D.epsCoeffs();
  return D;
}

::testing::AssertionResult matEq(const char *What, const Matrix &A,
                                 const Matrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return ::testing::AssertionFailure()
           << What << ": shape " << A.rows() << "x" << A.cols() << " vs "
           << B.rows() << "x" << B.cols();
  for (size_t I = 0; I < A.rows() * A.cols(); ++I)
    if (A.flat(I) != B.flat(I)) // exact: bit-identical up to +-0.0
      return ::testing::AssertionFailure()
             << What << ": entry " << I << " differs: " << A.flat(I)
             << " vs " << B.flat(I);
  return ::testing::AssertionSuccess();
}

/// Exact equality of two zonotopes: shapes, centers, both coefficient
/// planes (densified for comparison) and the concrete bounds.
::testing::AssertionResult sameZono(const Zonotope &A, const Zonotope &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return ::testing::AssertionFailure() << "view shape differs";
  if (A.numPhi() != B.numPhi() || A.numEps() != B.numEps())
    return ::testing::AssertionFailure()
           << "symbol counts differ: phi " << A.numPhi() << "/" << B.numPhi()
           << ", eps " << A.numEps() << "/" << B.numEps();
  if (::testing::AssertionResult Res = matEq("center", A.center(), B.center());
      !Res)
    return Res;
  if (::testing::AssertionResult Res =
          matEq("phi coeffs", A.phiCoeffs(), B.phiCoeffs());
      !Res)
    return Res;
  if (::testing::AssertionResult Res =
          matEq("eps coeffs", A.epsCoeffs(), B.epsCoeffs());
      !Res)
    return Res;
  Matrix ALo, AHi, BLo, BHi;
  A.bounds(ALo, AHi);
  B.bounds(BLo, BHi);
  if (::testing::AssertionResult Res = matEq("lower bounds", ALo, BLo); !Res)
    return Res;
  return matEq("upper bounds", AHi, BHi);
}

::testing::AssertionResult bytesEq(const char *What, const Matrix &A,
                                   const Matrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return ::testing::AssertionFailure() << What << ": shape differs";
  if (A.size() > 0 &&
      std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << What << ": bytes differ";
  return ::testing::AssertionSuccess();
}

/// Byte equality of two zonotopes (memcmp: distinguishes +-0.0 and NaN
/// payloads), including the eps block layout.
::testing::AssertionResult sameBytes(const Zonotope &A, const Zonotope &B) {
  if (A.numPhi() != B.numPhi() || A.numEps() != B.numEps() ||
      A.epsBlockCount() != B.epsBlockCount())
    return ::testing::AssertionFailure() << "symbol or block counts differ";
  if (::testing::AssertionResult Res =
          bytesEq("center", A.center(), B.center());
      !Res)
    return Res;
  if (::testing::AssertionResult Res =
          bytesEq("phi coeffs", A.phiCoeffs(), B.phiCoeffs());
      !Res)
    return Res;
  return bytesEq("eps coeffs", A.epsCoeffs(), B.epsCoeffs());
}

/// Runs \p Fn on a block-backed input and on its force-densified twin at
/// 1, 2 and 8 threads; every result must equal the dense serial reference.
void checkTransformer(
    const std::string &Name,
    const std::function<Zonotope(const Zonotope &)> &Fn) {
  for (double P : {2.0, Matrix::InfNorm}) {
    SCOPED_TRACE(Name + (P == 2.0 ? " (l2 input)" : " (linf input)"));
    Zonotope Blocks = blockBacked(P);
    ASSERT_GT(Blocks.epsBlockCount(), 1u)
        << "fixture lost its block structure";
    ASSERT_GT(Blocks.epsStructuredFraction(), 0.0);
    Zonotope Dense = densified(Blocks);
    ASSERT_TRUE(sameZono(Blocks, Dense));

    Zonotope Ref;
    {
      ScopedThreads T(1);
      Ref = Fn(Dense);
    }
    for (size_t Threads : {1, 2, 8}) {
      ScopedThreads T(Threads);
      SCOPED_TRACE("threads=" + std::to_string(Threads));
      EXPECT_TRUE(sameZono(Fn(Blocks), Ref));
      EXPECT_TRUE(sameZono(Fn(Dense), Ref));
    }
  }
}

TEST(ZonotopeBlocks, AffineTransformersMatchDensified) {
  support::Rng Rng(0xaff1);
  Matrix Const = Matrix::randn(R, C, Rng, 1.0);
  Matrix WRight = Matrix::randn(C, 5, Rng, 0.6);
  Matrix WLeft = Matrix::randn(3, R, Rng, 0.6);
  Matrix Gamma = Matrix::randn(1, C, Rng, 0.8);
  Matrix Bias = Matrix::randn(1, C, Rng, 0.8);

  checkTransformer("addConst",
                   [&](const Zonotope &Z) { return Z.addConst(Const); });
  checkTransformer("scale", [](const Zonotope &Z) { return Z.scale(-1.75); });
  checkTransformer("matmulRightConst", [&](const Zonotope &Z) {
    return Z.matmulRightConst(WRight);
  });
  checkTransformer("matmulLeftConst", [&](const Zonotope &Z) {
    return Z.matmulLeftConst(WLeft);
  });
  checkTransformer("subRowMean",
                   [](const Zonotope &Z) { return Z.subRowMean(); });
  checkTransformer("subRowMeanScale", [&](const Zonotope &Z) {
    return Z.subRowMeanScale(Gamma);
  });
  checkTransformer("subRowMeanScale == subRowMean+scaleColumns",
                   [&](const Zonotope &Z) {
                     return Z.subRowMean().scaleColumns(Gamma);
                   });
  checkTransformer("rowMeans", [](const Zonotope &Z) { return Z.rowMeans(); });
  checkTransformer("scaleColumns",
                   [&](const Zonotope &Z) { return Z.scaleColumns(Gamma); });
  checkTransformer("addRowBroadcast", [&](const Zonotope &Z) {
    return Z.addRowBroadcast(Bias);
  });
  checkTransformer("selectRow",
                   [](const Zonotope &Z) { return Z.selectRow(2); });
  checkTransformer("selectColRange",
                   [](const Zonotope &Z) { return Z.selectColRange(1, 4); });
  checkTransformer("transposedView",
                   [](const Zonotope &Z) { return Z.transposedView(); });
  checkTransformer("reshapedView",
                   [](const Zonotope &Z) { return Z.reshapedView(C, R); });
  checkTransformer("broadcastColTo", [](const Zonotope &Z) {
    return Z.rowMeans().broadcastColTo(C);
  });
  checkTransformer("pairwiseDiffExpand",
                   [](const Zonotope &Z) { return Z.pairwiseDiffExpand(); });
  checkTransformer("rowSumsTo", [](const Zonotope &Z) {
    return Z.pairwiseDiffExpand().rowSumsTo(R, C);
  });
  checkTransformer("rowSumBroadcast",
                   [](const Zonotope &Z) { return Z.rowSumBroadcast(); });
}

TEST(ZonotopeBlocks, AddSubConcatMatchDensified) {
  support::Rng Rng(0xadd5);
  Matrix Gamma = Matrix::randn(1, C, Rng, 0.7);
  // The second operand shares the first's noise symbols but has fresh
  // trailing ones of its own (tanh), so add() walks misaligned blocks.
  auto Second = [&](const Zonotope &Z) {
    return applyTanh(Z.scaleColumns(Gamma));
  };
  checkTransformer("add", [&](const Zonotope &Z) { return Z.add(Second(Z)); });
  // The rvalue overload adds into the left operand's storage; it must
  // reproduce the copying overload byte for byte, block layout included.
  checkTransformer("add (rvalue)", [&](const Zonotope &Z) {
    Zonotope Rhs = Second(Z);
    Zonotope Lhs = Z;
    Zonotope Out = std::move(Lhs).add(Rhs);
    EXPECT_TRUE(sameBytes(Out, Z.add(Rhs)));
    return Out;
  });
  checkTransformer("sub", [&](const Zonotope &Z) { return Z.sub(Second(Z)); });
  checkTransformer("concatCols", [&](const Zonotope &Z) {
    return Zonotope::concatCols({Z, Second(Z), Z.scaleColumns(Gamma)});
  });
}

TEST(ZonotopeBlocks, ElementwiseTransformersMatchDensified) {
  checkTransformer("relu", [](const Zonotope &Z) { return applyRelu(Z); });
  checkTransformer("tanh", [](const Zonotope &Z) { return applyTanh(Z); });
  checkTransformer("exp", [](const Zonotope &Z) { return applyExp(Z); });
  // Reciprocal and sqrt need strictly positive inputs.
  Matrix Shift(R, C, 4.0);
  checkTransformer("recip", [&](const Zonotope &Z) {
    return applyRecip(Z.addConst(Shift));
  });
  checkTransformer("sqrt", [&](const Zonotope &Z) {
    return applySqrt(Z.addConst(Shift));
  });
}

TEST(ZonotopeBlocks, DotProductAndMultiplicationMatchDensified) {
  support::Rng Rng(0xd07);
  Matrix Gamma = Matrix::randn(1, C, Rng, 0.7);
  DotOptions Fast; // DotMethod::Fast is the default
  checkTransformer("dotRows fast", [&](const Zonotope &Z) {
    return dotRows(Z, applyTanh(Z.scaleColumns(Gamma)), Fast);
  });
  checkTransformer("mulElementwise", [&](const Zonotope &Z) {
    return mulElementwise(Z, applyTanh(Z.scaleColumns(Gamma)), Fast);
  });
}

TEST(ZonotopeBlocks, SoftmaxAndRefinementMatchDensified) {
  checkTransformer("softmax stable", [](const Zonotope &Z) {
    return applySoftmax(Z, zono::SoftmaxOptions());
  });
  checkTransformer("softmax + sum refinement", [](const Zonotope &Z) {
    Zonotope Probs = applySoftmax(Z, zono::SoftmaxOptions());
    Zonotope CoLive = Z.subRowMean();
    zono::refineSoftmaxSum(Probs, {&CoLive});
    // Fold the co-live zonotope in so its rewritten symbols are part of
    // the compared result.
    return Zonotope::concatCols({Probs, CoLive});
  });
}

TEST(ZonotopeBlocks, NoiseReductionMatchesDensified) {
  checkTransformer("reduceEpsSymbols", [](const Zonotope &Z) {
    Zonotope Out = Z;
    zono::reduceEpsSymbols(Out, 4);
    return Out;
  });
}

} // namespace
