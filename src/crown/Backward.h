//===- crown/Backward.h - CROWN backsubstitution ---------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bound computation by backward substitution of linear bounds through
/// the computation graph, all the way to the input node, concretized
/// there with the dual norm of the perturbation. CROWN-Backward bounds
/// every intermediate node this way -- precise but O(depth) per queried
/// node, hence superlinear in network depth overall, with coefficient
/// matrices whose total size is what blew the paper's GPU memory
/// (Table 3); a byte budget reproduces that failure mode. CROWN-BaF bounds
/// the intermediates with the forward pass (crown/Forward.h) and uses
/// backsubstitution only for the output margin.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_CROWN_BACKWARD_H
#define DEEPT_CROWN_BACKWARD_H

#include "crown/Graph.h"

namespace deept {
namespace crown {

struct BackwardOptions {
  /// Abort when the peak live coefficient bytes *or* the cumulative
  /// allocated coefficient bytes exceed this budget (0 = unlimited).
  /// The cumulative volume is what grows superlinearly with depth and
  /// models the paper's GPU OOM failures (their batched backward keeps
  /// per-layer coefficient tensors resident).
  size_t MemoryBudgetBytes = 0;
};

struct BackwardResult {
  Matrix Lo, Hi; // 1 x Dim of the queried node
  bool MemoryExceeded = false;
  size_t PeakBytes = 0;
  size_t TotalBytes = 0; // cumulative allocation volume
};

/// Computes interval bounds of node \p Target by backsubstitution. All
/// nonlinear nodes below Target must already have bounds on their inputs
/// (use computeAllBounds).
BackwardResult computeBounds(const Graph &G, int Target,
                             const BackwardOptions &Opts);

/// Fills Node::Lo / Node::Hi, in topological order, for every node whose
/// bounds a relaxation needs, by backsubstitution. Returns false (and stops)
/// when the memory budget is exceeded. \p PeakBytes reports the largest
/// single-query footprint and \p TotalBytes the cumulative allocation
/// volume across queries.
bool computeAllBounds(Graph &G, const BackwardOptions &Opts,
                      size_t *PeakBytes = nullptr,
                      size_t *TotalBytes = nullptr);

} // namespace crown
} // namespace deept

#endif // DEEPT_CROWN_BACKWARD_H
