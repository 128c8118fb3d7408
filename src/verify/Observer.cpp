//===- verify/Observer.cpp ------------------------------------*- C++ -*-===//

#include "verify/Observer.h"

#include "support/Error.h"
#include "tensor/Matrix.h"
#include "zono/Zonotope.h"

#include <cmath>
#include <string>

using namespace deept;
using namespace deept::verify;
using tensor::Matrix;
using zono::Zonotope;

RunScope::RunScope(const ObserverList &Obs, const RunInfo &Info,
                   const Zonotope &Input)
    : RunScope(Obs) {
  // A delegating constructor: the scope is complete once RunScope(Obs)
  // returns, so an onRunBegin that throws here still runs the destructor.
  for (Observer *O : Obs)
    O->onRunBegin(Info, Input);
}

void deept::verify::checkpoint(const ObserverList &Obs, const Zonotope &Z,
                               const char *Site, int Layer, int Head) {
  for (Observer *O : Obs)
    O->onCheckpoint(Z, Site, Layer, Head);
  std::string Why;
  if (!Z.validate(&Why))
    throw support::Error(support::ErrorCode::UnsoundAbstraction, Site, Why);
}

double deept::verify::marginOf(const ObserverList &Obs, const Zonotope &Logits,
                               size_t TrueClass) {
  // Built as a right-multiply by the +/-1 column so the eps blocks stay
  // in scatter form (mapLinear would densify and allocate per symbol
  // row); the ascending-k accumulation performs the same subtraction, so
  // the margin is bit-identical.
  Matrix MarginW(2, 1);
  MarginW.at(TrueClass, 0) = 1.0;
  MarginW.at(1 - TrueClass, 0) = -1.0;
  Zonotope Margin = Logits.matmulRightConst(MarginW);
  Matrix Lo, Hi;
  Margin.bounds(Lo, Hi);
  if (std::isnan(Lo.at(0, 0)))
    throw support::Error(support::ErrorCode::UnsoundAbstraction,
                         "verify.margin", "margin lower bound is NaN");
  for (Observer *O : Obs)
    O->onMargin(Margin, TrueClass, Lo.at(0, 0), Hi.at(0, 0));
  return Lo.at(0, 0);
}
