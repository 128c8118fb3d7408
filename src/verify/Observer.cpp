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

/// The innermost open stage on this thread.
static thread_local Stage *Innermost = nullptr;

Stage::Stage(const ObserverList &Obs, const char *Span, int Layer, int Head,
             const char *Group)
    : Obs(Obs), Name(Span), Layer(Layer), Head(Head), Parent(Innermost),
      EntersLayer(Layer >= 0 && !(Parent && Parent->Layer >= 0)),
      SpanScope(Span, EntersLayer ? Layer : -1),
      Prov(Group ? zono::SymbolProvenance::active() : nullptr) {
  // The group and the stack only take the stage once onLayer returned: a
  // throwing onLayer leaves nothing to undo but the span, which closes
  // by itself.
  if (EntersLayer)
    for (Observer *O : Obs)
      O->onLayer(static_cast<size_t>(Layer));
  // The "layerN.group" string is built only while a session listens.
  if (Prov)
    SavedGroup = Prov->pushGroup(
        Layer < 0 ? std::string(Group)
                  : "layer" + std::to_string(Layer) + "." + Group);
  Innermost = this;
}

Stage::~Stage() {
  double Ms = Clock.seconds() * 1e3;
  if (Prov)
    Prov->restoreGroup(SavedGroup);
  Innermost = Parent;
  if (Parent)
    Parent->ChildMs += Ms;
  for (Observer *O : Obs)
    O->onStage(Name, Layer, Head, Ms, Ms - ChildMs);
}

void Stage::checkpoint(const Zonotope &Z, const char *Site) const {
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
