//===- support/Fault.cpp --------------------------------------*- C++ -*-===//

#include "support/Fault.h"

#include "support/Error.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

using namespace deept;
using namespace deept::support;

namespace {

enum class Kind { Alloc, Fail, Delay, ShortIo, Nan, Inf };

struct Spec {
  std::string Site;
  /// 1-based hit index at which the fault fires; 0 fires on every hit.
  uint64_t AtHit = 1;
  Kind K = Kind::Fail;
  double Param = 0.0;
  uint64_t Hits = 0; // per-spec hit counter for its site
};

/// Where arming stands. Unchecked until the first site hit (or an
/// explicit arm/disarm) has looked at DEEPT_FAULTS; after that a site hit
/// reads only this, and takes the mutex only when something is Armed.
enum class Phase : uint8_t { Unchecked, Disarmed, Armed };

/// Armed specs plus bookkeeping. A single mutex guards the specs -- every
/// site is on a cold path (IO, per-job, per-layer), so contention is nil;
/// Mode keeps the disarmed fast path to one atomic load.
struct State {
  std::mutex Mu;
  std::vector<Spec> Specs;
  std::atomic<Phase> Mode{Phase::Unchecked};
  std::atomic<uint64_t> Injected{0};
};

/// Publishes the arming state of \p S's specs. Call with the mutex held.
void publishLocked(State &S) {
  S.Mode.store(S.Specs.empty() ? Phase::Disarmed : Phase::Armed,
               std::memory_order_release);
}

State &state() {
  static State S;
  return S;
}

bool parseKind(const std::string &Tok, Kind &K) {
  if (Tok == "alloc")
    K = Kind::Alloc;
  else if (Tok == "fail")
    K = Kind::Fail;
  else if (Tok == "delay")
    K = Kind::Delay;
  else if (Tok == "short")
    K = Kind::ShortIo;
  else if (Tok == "nan")
    K = Kind::Nan;
  else if (Tok == "inf")
    K = Kind::Inf;
  else
    return false;
  return true;
}

/// Parses "site:count:kind[:param]" into \p Out.
bool parseOne(const std::string &Text, Spec &Out, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "fault spec '" + Text + "': " + Msg;
    return false;
  };
  std::vector<std::string> Fields;
  size_t Start = 0;
  while (true) {
    size_t Colon = Text.find(':', Start);
    Fields.push_back(Text.substr(Start, Colon - Start));
    if (Colon == std::string::npos)
      break;
    Start = Colon + 1;
  }
  if (Fields.size() < 3 || Fields.size() > 4)
    return Fail("want site:count:kind[:param]");
  if (Fields[0].empty())
    return Fail("empty site");
  Out.Site = Fields[0];
  char *End = nullptr;
  Out.AtHit = std::strtoull(Fields[1].c_str(), &End, 10);
  if (Fields[1].empty() || *End != '\0')
    return Fail("count must be a non-negative integer");
  if (!parseKind(Fields[2], Out.K))
    return Fail("unknown kind '" + Fields[2] +
                "' (want alloc, fail, delay, short, nan or inf)");
  Out.Param = Out.K == Kind::Delay ? 10.0 : 0.0;
  if (Fields.size() == 4) {
    Out.Param = std::strtod(Fields[3].c_str(), &End);
    if (Fields[3].empty() || *End != '\0' || Out.Param < 0)
      return Fail("param must be a non-negative number");
  }
  return true;
}

/// Lazily arms from DEEPT_FAULTS the first time any site is hit, so CLI
/// drills need no code changes. Call with the mutex held.
void checkEnvLocked(State &S) {
  if (S.Mode.load(std::memory_order_relaxed) != Phase::Unchecked)
    return;
  S.Mode.store(Phase::Disarmed, std::memory_order_release);
  const char *Env = std::getenv("DEEPT_FAULTS");
  if (!Env || !*Env)
    return;
  std::string SpecText(Env), Err;
  size_t Start = 0;
  std::vector<Spec> Parsed;
  while (true) {
    size_t Comma = SpecText.find(',', Start);
    std::string One = SpecText.substr(Start, Comma - Start);
    Spec Sp;
    if (!parseOne(One, Sp, &Err)) {
      std::fprintf(stderr, "warning: ignoring DEEPT_FAULTS: %s\n",
                   Err.c_str());
      return;
    }
    Parsed.push_back(std::move(Sp));
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  S.Specs = std::move(Parsed);
  publishLocked(S);
}

support::Counter &injectedCounter() {
  static support::Counter &C =
      support::Metrics::global().counter("fault.injected");
  return C;
}

/// Returns the matching armed spec for a hit of \p Site, if its turn has
/// come, bumping hit counters either way. nullptr when nothing fires.
/// \p Filter restricts which kinds can fire at this hook. Copies the spec
/// out so the caller acts without the lock held.
bool nextFault(const char *Site, bool (*Filter)(Kind), Spec &Out) {
  State &S = state();
  Phase Mode = S.Mode.load(std::memory_order_acquire);
  if (Mode == Phase::Disarmed)
    return false;
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (Mode == Phase::Unchecked)
    checkEnvLocked(S); // the one lock taken to pick up DEEPT_FAULTS
  for (Spec &Sp : S.Specs) {
    if (Sp.Site != Site || !Filter(Sp.K))
      continue;
    ++Sp.Hits;
    if (Sp.AtHit != 0 && Sp.Hits != Sp.AtHit)
      continue;
    Out = Sp;
    S.Injected.fetch_add(1, std::memory_order_relaxed);
    injectedCounter().add(1);
    return true;
  }
  return false;
}

bool isPointKind(Kind K) {
  return K == Kind::Alloc || K == Kind::Fail || K == Kind::Delay;
}
bool isIoKind(Kind K) { return K == Kind::ShortIo; }
bool isCorruptKind(Kind K) { return K == Kind::Nan || K == Kind::Inf; }

} // namespace

bool deept::support::fault::arm(const std::string &SpecText,
                                std::string *Err) {
  std::vector<Spec> Parsed;
  size_t Start = 0;
  while (Start <= SpecText.size() && !SpecText.empty()) {
    size_t Comma = SpecText.find(',', Start);
    Spec Sp;
    if (!parseOne(SpecText.substr(Start, Comma - Start), Sp, Err))
      return false;
    Parsed.push_back(std::move(Sp));
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Specs = std::move(Parsed);
  publishLocked(S); // explicit arming overrides the environment
  return true;
}

void deept::support::fault::disarm() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Specs.clear();
  publishLocked(S);
  S.Injected.store(0, std::memory_order_relaxed);
}

bool deept::support::fault::armed() {
  return state().Mode.load(std::memory_order_acquire) == Phase::Armed;
}

uint64_t deept::support::fault::injectedCount() {
  return state().Injected.load(std::memory_order_relaxed);
}

void deept::support::fault::point(const char *Site) {
  Spec Sp;
  if (!nextFault(Site, isPointKind, Sp))
    return;
  switch (Sp.K) {
  case Kind::Alloc:
    throw std::bad_alloc();
  case Kind::Fail:
    throw Error(ErrorCode::FaultInjected, Site, "injected fault");
  case Kind::Delay:
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(Sp.Param * 1e3)));
    return;
  default:
    return;
  }
}

bool deept::support::fault::ioFail(const char *Site) {
  Spec Sp;
  return nextFault(Site, isIoKind, Sp);
}

void deept::support::fault::corrupt(const char *Site, double *Data,
                                    size_t N) {
  if (N == 0 || !Data)
    return;
  Spec Sp;
  if (!nextFault(Site, isCorruptKind, Sp))
    return;
  Data[N / 2] = Sp.K == Kind::Nan
                    ? std::numeric_limits<double>::quiet_NaN()
                    : std::numeric_limits<double>::infinity();
}
