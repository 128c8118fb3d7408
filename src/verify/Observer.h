//===- verify/Observer.h - Verifier observation hooks ----------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one attachment point for everything that watches a certification
/// run without taking part in its arithmetic: precision profiles
/// (verify/Profile.h), proof certificates (verify/Certificate.h) and the
/// scheduler's deadline (verify/Scheduler.cpp). Both
/// verifiers -- DeepT and the feed-forward verifier -- drive the same
/// hooks through the same three pieces, Stage, Stage::checkpoint() and
/// marginOf(), so an observer sees one protocol whichever network it
/// watches:
///
///   onRunBegin(Info, Input)
///     onLayer(0)  { onCheckpoint(...) | onStage(...) }*   (layer 0)
///     onLayer(1)  ...
///     onCheckpoint(final site)         ("verify.logits" for DeepT)
///     onStage(outermost stage)         ("deept.propagate")
///     onMargin(...)
///   onRunEnd()
///
/// One run is one margin computation; certifyMargin() makes exactly one.
/// onRunEnd() is delivered on every exit path, including an exception
/// thrown by another observer's hook or by the soundness check, so
/// per-run thread-local state (the provenance session of a profile) never
/// outlives its run. Hooks may throw to abort the run (the scheduler's
/// deadline does, from onLayer) -- except onStage() and onRunEnd(), which
/// run during unwinding and must not throw.
///
/// Observers are notified in list order on the thread that called the
/// verifier; observation is read-only, so attaching any set of observers
/// leaves the margin bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_OBSERVER_H
#define DEEPT_VERIFY_OBSERVER_H

#include "support/Timer.h"
#include "support/Trace.h"
#include "zono/Provenance.h"

#include <cstddef>
#include <vector>

namespace deept {

namespace zono {
class Zonotope;
} // namespace zono

namespace verify {

/// What a run certifies: the verifier kind and the model dimensions.
struct RunInfo {
  const char *Kind = "deept"; ///< "deept" or "ffn".
  size_t TrueClass = 0;
  size_t Layers = 0, Embed = 0, Heads = 0;
};

/// A verifier observer; every hook defaults to a no-op.
class Observer {
public:
  virtual ~Observer() = default;
  virtual void onRunBegin(const RunInfo &, const zono::Zonotope &) {}
  /// Top of layer \p L, before any of its work.
  virtual void onLayer(size_t) {}
  /// An intermediate zonotope at a checkpoint site; Layer / Head are -1
  /// for sites outside a layer / head.
  virtual void onCheckpoint(const zono::Zonotope &, const char *, int, int) {}
  /// The 1x1 margin zonotope and the bounds the verdict was taken from.
  virtual void onMargin(const zono::Zonotope &, size_t, double, double) {}
  /// A Stage closed: its span name, layer, head (-1 outside a layer /
  /// head), its elapsed time and its self time (elapsed minus the stages
  /// nested in it), both in ms.
  virtual void onStage(const char *, int, int, double, double) {}
  virtual void onRunEnd() {}
};

using ObserverList = std::vector<Observer *>;

/// Delivers onRunBegin on construction and onRunEnd on destruction, so
/// every exit path of a run ends it -- including a throwing onRunBegin,
/// after which every observer in the list gets onRunEnd.
class RunScope {
public:
  RunScope(const ObserverList &Obs, const RunInfo &Info,
           const zono::Zonotope &Input);
  ~RunScope() {
    for (Observer *O : Obs)
      O->onRunEnd();
  }
  RunScope(const RunScope &) = delete;

private:
  explicit RunScope(const ObserverList &Obs) : Obs(Obs) {}
  const ObserverList &Obs;
};

/// One stage of a verifier's pipeline and its only marker. For its scope
/// a stage opens the trace span \p Span and makes \p Group the provenance
/// group of fresh symbols ("layer<Layer>.<Group>", or plain \p Group
/// outside a layer; without a group the current one stays). On exit it
/// delivers onStage with its elapsed and self time, so the self times of
/// a run's stages sum to the elapsed time of its outermost stage.
///
/// The stage that enters a layer -- Layer >= 0 with no enclosing stage in
/// a layer -- first delivers onLayer(Layer), so a deadline checks before
/// the layer's work, and names its span "<Span>[<Layer>]".
///
/// Stages nest per thread in strict LIFO order; an exception closes
/// every stage it unwinds through, spans and groups with them. A stage
/// whose onLayer throws is never entered: its span closes at once and it
/// delivers no onStage.
class Stage {
public:
  Stage(const ObserverList &Obs, const char *Span, int Layer = -1,
        int Head = -1, const char *Group = nullptr);
  ~Stage();

  /// A soundness checkpoint at this stage's layer and head: notifies the
  /// observers, then runs Zonotope::validate on \p Z. A violation -- a
  /// non-finite center or coefficient means the abstraction no longer
  /// over-approximates anything -- throws
  /// support::Error(UnsoundAbstraction) named after \p Site, so it
  /// surfaces as a structured error and can never be reported as
  /// `certified`.
  void checkpoint(const zono::Zonotope &Z, const char *Site) const;

private:
  const ObserverList &Obs;
  const char *Name;
  int Layer, Head;
  Stage *Parent;
  bool EntersLayer;
  support::TraceSpan SpanScope;
  zono::SymbolProvenance *Prov; ///< Null: no group, or no session.
  uint32_t SavedGroup = 0;
  support::Timer Clock;
  double ChildMs = 0.0;
};

/// Lower bound of logits[TrueClass] - logits[1 - TrueClass] for a 1x2
/// logits zonotope. The margin is formed inside the domain (keeping the
/// shared-noise cancellation an interval subtraction would lose); a NaN
/// lower bound throws UnsoundAbstraction ("verify.margin") instead of
/// comparing vacuously false. Notifies onMargin before returning.
double marginOf(const ObserverList &Obs, const zono::Zonotope &Logits,
                size_t TrueClass);

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_OBSERVER_H
