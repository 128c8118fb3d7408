//===- support/Parallel.h - Shared thread pool and parallelFor -*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer: a lazily started, process-wide thread pool and a
/// deterministic parallelFor on top of it. The tensor kernels and the
/// zonotope abstract transformers dispatch their coefficient-row and
/// output-variable loops through here (see DESIGN.md "Execution layer").
///
/// Determinism contract: parallelFor splits [Begin, End) into chunks of
/// exactly Grain indices (the last chunk may be shorter). Chunk boundaries
/// depend only on (Begin, End, Grain) -- never on the thread count -- and
/// every chunk is executed exactly once. Kernels built on parallelFor
/// either write disjoint outputs with a fixed per-element accumulation
/// order (GEMM rows, coefficient rows) or combine per-chunk partials in
/// ascending chunk order, so results are bit-identical for any thread
/// count, including 1.
///
/// Thread count resolution: DEEPT_THREADS environment variable if set,
/// else std::thread::hardware_concurrency(); overridable at runtime via
/// ThreadPool::setThreadCount (the CLI's --threads flag). Worker threads
/// are spawned on the first parallel dispatch, not at startup, so purely
/// serial runs never pay for them.
///
/// Nested parallelFor calls run serially on the calling worker (no
/// deadlock, no oversubscription): the outermost loop owns the pool.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_PARALLEL_H
#define DEEPT_SUPPORT_PARALLEL_H

#include <algorithm>
#include <cstddef>
#include <string>

namespace deept {
namespace support {

/// Parses a worker-thread count: the whole string must be a decimal
/// integer >= 1. Returns false and fills \p Err ("must be a positive
/// integer, got '...'") for zero, negative, empty, or non-numeric input.
/// Both the --threads flag (CLI, benches) and the DEEPT_THREADS
/// environment variable go through this, so malformed values fail loudly
/// instead of silently falling back to the core count.
bool parseThreadCount(const std::string &Text, size_t &Out,
                      std::string *Err = nullptr);

/// The process-wide worker pool. Users go through parallelFor; the class
/// is exposed for configuration (thread count) and introspection.
class ThreadPool {
public:
  /// The shared pool instance.
  static ThreadPool &global();

  /// Total computing threads a parallel region uses (caller + workers).
  /// Always >= 1.
  size_t threadCount() const;

  /// Reconfigures the pool to \p N total threads (clamped to >= 1).
  /// Joins and respawns workers; must not be called from inside a
  /// parallel region.
  void setThreadCount(size_t N);

  /// True while the calling thread is executing a parallelFor chunk
  /// (nested parallel loops degrade to serial).
  static bool inParallelRegion();

  /// Runs \p Fn(Ctx, Chunk) for every Chunk in [0, NumChunks), distributed
  /// over the pool; the caller participates. Blocks until all chunks have
  /// completed. Prefer parallelFor.
  void run(size_t NumChunks, void (*Fn)(void *Ctx, size_t Chunk), void *Ctx);

  ~ThreadPool();

private:
  ThreadPool();
  struct Impl;
  Impl *I;
};

/// Executes Fn(ChunkBegin, ChunkEnd) over a static, thread-count-
/// independent partition of [Begin, End) into chunks of Grain indices.
/// Fn must be safe to invoke concurrently on disjoint chunks. Runs
/// serially (still chunked, preserving reduction boundaries) when the
/// range is a single chunk, the pool has one thread, or the caller is
/// already inside a parallel region.
template <typename FnT>
void parallelFor(size_t Begin, size_t End, size_t Grain, FnT &&Fn) {
  if (End <= Begin)
    return;
  if (Grain == 0)
    Grain = 1;
  size_t NumChunks = (End - Begin + Grain - 1) / Grain;
  auto RunChunk = [&](size_t Chunk) {
    size_t B = Begin + Chunk * Grain;
    size_t E = std::min(End, B + Grain);
    Fn(B, E);
  };
  ThreadPool &Pool = ThreadPool::global();
  if (NumChunks == 1 || Pool.threadCount() == 1 ||
      ThreadPool::inParallelRegion()) {
    for (size_t C = 0; C < NumChunks; ++C)
      RunChunk(C);
    return;
  }
  using ChunkFn = decltype(RunChunk);
  Pool.run(
      NumChunks,
      [](void *Ctx, size_t Chunk) { (*static_cast<ChunkFn *>(Ctx))(Chunk); },
      &RunChunk);
}

/// A grain size giving chunks of roughly \p TargetWork scalar operations
/// when each index costs \p WorkPerIndex (>= 1 index per chunk).
inline size_t grainForWork(size_t WorkPerIndex, size_t TargetWork = 16384) {
  if (WorkPerIndex == 0)
    return TargetWork;
  return std::max<size_t>(1, TargetWork / WorkPerIndex);
}

/// A grain size for column-blocked symbol-axis reductions (columnDualNorms
/// and friends), which call an accumulator kernel once per symbol row per
/// chunk: chunks must be wide enough to amortize those calls -- a
/// work-proportional grain would shrink to single-digit widths on large
/// symbol counts and drown in call overhead -- while still splitting into
/// a few chunks per pool thread for load balance. Chunk boundaries do not
/// affect results (each column accumulates independently), so the
/// thread-count dependence here preserves the determinism contract.
inline size_t reductionGrain(size_t NumVars) {
  size_t Chunks = 4 * ThreadPool::global().threadCount();
  return std::max<size_t>(256, (NumVars + Chunks - 1) / Chunks);
}

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_PARALLEL_H
