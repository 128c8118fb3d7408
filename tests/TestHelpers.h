//===- tests/TestHelpers.h - Shared test utilities -------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the test suite: a scoped pool thread count, the
/// cached-model lookup, random Multi-norm Zonotopes and the central
/// soundness check "a concrete execution tracked through an abstract
/// transformer stays inside the output zonotope".
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TESTS_TESTHELPERS_H
#define DEEPT_TESTS_TESTHELPERS_H

#include "nn/Serialize.h"
#include "nn/Transformer.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace deept {
namespace testhelp {

using tensor::Matrix;
using zono::Zonotope;

/// Sets the shared pool's thread count for a scope and restores it on
/// exit, so a failing test does not leak its setting into the rest of the
/// suite.
class ScopedThreads {
public:
  explicit ScopedThreads(size_t N)
      : Prev(support::ThreadPool::global().threadCount()) {
    support::ThreadPool::global().setThreadCount(N);
  }
  ~ScopedThreads() { support::ThreadPool::global().setThreadCount(Prev); }

private:
  size_t Prev;
};

/// Loads the cached model \p Name (e.g. "sst_m12") into \p Model. Looks in
/// nn::defaultModelCacheDir() -- DEEPT_MODEL_CACHE when set, else the
/// working directory's deept-model-cache -- then in the tracked copy under
/// the source tree's deept-model-cache. Returns false when neither holds a
/// loadable model; callers skip.
inline bool loadCachedModel(const std::string &Name,
                            nn::TransformerModel &Model) {
  const std::string Candidates[] = {
      nn::defaultModelCacheDir() + "/" + Name + ".dptm",
      std::string(DEEPT_SOURCE_DIR) + "/deept-model-cache/" + Name + ".dptm",
  };
  for (const std::string &Path : Candidates)
    if (nn::loadModel(Path, Model))
      return true;
  return false;
}

/// A random Multi-norm Zonotope with dense coefficients (tests only).
inline Zonotope randomZonotope(size_t Rows, size_t Cols, double P,
                               size_t NumPhi, size_t NumEps,
                               support::Rng &Rng, double CoefScale = 0.3) {
  Matrix Center = Matrix::randn(Rows, Cols, Rng, 1.0);
  Zonotope Z = Zonotope::constant(Center, P);
  Matrix Phi = Matrix::randn(NumPhi, Rows * Cols, Rng, CoefScale);
  Matrix Eps = Matrix::randn(NumEps, Rows * Cols, Rng, CoefScale);
  Z.installCoeffs(std::move(Phi), std::move(Eps));
  return Z;
}

/// Checks that \p Concrete lies inside \p Out when the shared noise
/// symbols take the given values and the fresh symbols introduced by the
/// transformer (phi/eps beyond the shared prefix) range freely. For every
/// variable v:
///   |Concrete_v - affine(Out_v at shared noise)| <= fresh radius of v.
inline ::testing::AssertionResult
coveredAt(const Zonotope &Out, const std::vector<double> &SharedPhi,
          const std::vector<double> &SharedEps, const Matrix &Concrete,
          double Tol = 1e-7) {
  if (Concrete.rows() != Out.rows() || Concrete.cols() != Out.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  if (SharedPhi.size() > Out.numPhi() || SharedEps.size() > Out.numEps())
    return ::testing::AssertionFailure()
           << "shared noise prefix longer than the output's symbol space";
  for (size_t V = 0; V < Out.numVars(); ++V) {
    double Affine = Out.center().flat(V);
    for (size_t S = 0; S < SharedPhi.size(); ++S)
      Affine += SharedPhi[S] * Out.phiCoeffs().at(S, V);
    for (size_t S = 0; S < SharedEps.size(); ++S)
      Affine += SharedEps[S] * Out.epsCoeffs().at(S, V);
    double FreshRadius = 0.0;
    // Fresh phi symbols never appear (transformers only add eps symbols),
    // but be conservative and account for them.
    for (size_t S = SharedPhi.size(); S < Out.numPhi(); ++S)
      FreshRadius += std::fabs(Out.phiCoeffs().at(S, V));
    for (size_t S = SharedEps.size(); S < Out.numEps(); ++S)
      FreshRadius += std::fabs(Out.epsCoeffs().at(S, V));
    double Err = std::fabs(Concrete.flat(V) - Affine);
    if (Err > FreshRadius + Tol)
      return ::testing::AssertionFailure()
             << "variable " << V << ": concrete " << Concrete.flat(V)
             << " deviates " << Err << " from the affine part, fresh radius "
             << FreshRadius;
  }
  return ::testing::AssertionSuccess();
}

/// Checks Lo <= Concrete <= Hi elementwise with slack \p Tol.
inline ::testing::AssertionResult withinBounds(const Matrix &Concrete,
                                               const Matrix &Lo,
                                               const Matrix &Hi,
                                               double Tol = 1e-7) {
  for (size_t V = 0; V < Concrete.size(); ++V)
    if (Concrete.flat(V) < Lo.flat(V) - Tol ||
        Concrete.flat(V) > Hi.flat(V) + Tol)
      return ::testing::AssertionFailure()
             << "variable " << V << ": " << Concrete.flat(V)
             << " outside [" << Lo.flat(V) << ", " << Hi.flat(V) << "]";
  return ::testing::AssertionSuccess();
}

} // namespace testhelp
} // namespace deept

#endif // DEEPT_TESTS_TESTHELPERS_H
