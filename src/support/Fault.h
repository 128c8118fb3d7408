//===- support/Fault.h - Deterministic fault injection ---------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the robustness layer. Recovery code
/// that only runs when a disk dies or an allocation fails is recovery code
/// that has never run; this framework lets tests (and operators doing
/// drills) trigger those paths reproducibly.
///
/// Call sites name an injection point:
///
///   DEEPT_FAULT_POINT("serialize.read");          // may throw / sleep
///   if (DEEPT_FAULT_IO_FAIL("store.write")) ...   // simulate short IO
///   DEEPT_FAULT_CORRUPT("verify.propagate", Ptr, N); // poison doubles
///
/// Every site is always compiled in. Each lives on a cold path (the
/// hottest, `verify.propagate`, runs once per propagation), and an
/// unarmed site only checks the arming state.
///
/// Faults are armed by a spec string -- programmatically via fault::arm()
/// or from the DEEPT_FAULTS environment variable, read once on first site
/// hit:
///
///   DEEPT_FAULTS=site:count:kind[:param][,site:count:kind...]
///
/// `count` is the 1-based hit index of `site` at which the fault fires
/// (0 = every hit). Kinds:
///   alloc  -- throw std::bad_alloc at a DEEPT_FAULT_POINT
///   fail   -- throw support::Error(FaultInjected) at a DEEPT_FAULT_POINT
///   delay  -- sleep `param` milliseconds (default 10) at a point
///   short  -- make DEEPT_FAULT_IO_FAIL return true (a short read/write)
///   nan    -- overwrite the middle element at a DEEPT_FAULT_CORRUPT site
///   inf    -- same with +infinity
///
/// Example: `DEEPT_FAULTS=serialize.read:2:short,verify.propagate:1:nan`
/// fails the second payload read and poisons the first propagation.
///
/// The scheduler's site `sched.execute` fails one job attempt: kind
/// `alloc` takes the out-of-memory degradation path, kind `fail` records
/// a typed `fault_injected` error; kind `delay` stretches jobs.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_FAULT_H
#define DEEPT_SUPPORT_FAULT_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace deept {
namespace support {
namespace fault {

/// Parses and arms \p Spec (replacing any previous arming). Returns false
/// and fills \p Err on a malformed spec. An empty spec disarms.
bool arm(const std::string &Spec, std::string *Err = nullptr);

/// Removes all armed faults and resets hit counters.
void disarm();

/// True when at least one fault spec is armed.
bool armed();

/// Total faults fired since the last disarm (also mirrored into the
/// metrics registry as the `fault.injected` counter).
uint64_t injectedCount();

/// Site hooks -- call through the macros below, not directly.
void point(const char *Site);
bool ioFail(const char *Site);
void corrupt(const char *Site, double *Data, size_t N);

} // namespace fault
} // namespace support
} // namespace deept

/// May throw std::bad_alloc / support::Error or sleep, per the armed spec.
#define DEEPT_FAULT_POINT(Site) ::deept::support::fault::point(Site)
/// True when the armed spec says this IO operation should fail short.
#define DEEPT_FAULT_IO_FAIL(Site) ::deept::support::fault::ioFail(Site)
/// Overwrites an element of [Data, Data+N) with NaN/Inf per the spec.
#define DEEPT_FAULT_CORRUPT(Site, Data, N)                                   \
  ::deept::support::fault::corrupt(Site, Data, N)

#endif // DEEPT_SUPPORT_FAULT_H
