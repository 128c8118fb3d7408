//===- verify/Observer.h - Verifier observation hooks ----------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one attachment point for everything that watches a certification
/// run without taking part in its arithmetic: precision profiles
/// (verify/Profile.h), proof certificates (verify/Certificate.h), the
/// scheduler's deadline and flight recorder (verify/Scheduler.cpp). Both
/// verifiers -- DeepT and the feed-forward verifier -- drive the same
/// hooks through the same two functions, checkpoint() and marginOf(), so
/// an observer sees one protocol whichever network it watches:
///
///   onRunBegin(Info, Input)
///     onLayer(0)  onCheckpoint(...)*   (sites of layer 0)
///     onLayer(1)  onCheckpoint(...)*   ...
///     onCheckpoint(final site)         ("verify.logits" for DeepT)
///     onMargin(...)
///   onRunEnd()
///
/// One run is one margin computation; certifyMargin() makes exactly one.
/// onRunEnd() is delivered on every exit path, including an exception
/// thrown by another observer's hook or by the soundness check, so
/// per-run thread-local state (the provenance session of a profile) never
/// outlives its run. Hooks may throw to abort the run (the scheduler's
/// deadline does, from onLayer) -- except onRunEnd(), which runs during
/// unwinding and must not throw.
///
/// Observers are notified in list order on the thread that called the
/// verifier; observation is read-only, so attaching any set of observers
/// leaves the margin bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_OBSERVER_H
#define DEEPT_VERIFY_OBSERVER_H

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

/// Notifies \p Obs that layer \p L starts.
inline void enterLayer(const ObserverList &Obs, size_t L) {
  for (Observer *O : Obs)
    O->onLayer(L);
}

/// A soundness checkpoint: notifies \p Obs, then runs Zonotope::validate
/// on \p Z. A violation -- a non-finite center or coefficient means the
/// abstraction no longer over-approximates anything -- throws
/// support::Error(UnsoundAbstraction) named after \p Site, so it surfaces
/// as a structured error and can never be reported as `certified`.
void checkpoint(const ObserverList &Obs, const zono::Zonotope &Z,
                const char *Site, int Layer, int Head);

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
