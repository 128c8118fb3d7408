//===- crown/Graph.h - Computation graph for linear bounds -----*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computation-DAG representation used by the CROWN baseline (our
/// reimplementation of Shi et al. 2020, "Robustness Verification for
/// Transformers"; see DESIGN.md). Values are row vectors; a Transformer
/// forward pass is expressed with five node kinds:
///
///   Input   -- the (partially) perturbed flattened embedding matrix,
///   Affine  -- y = x W + b (all structural reshuffling, matmuls with
///              constants, sums/means, selections and broadcasts),
///   AddTwo  -- y = x1 + x2 (residual connections),
///   Unary   -- elementwise ReLU / tanh / exp / reciprocal / sqrt,
///   Mul     -- elementwise product of two equally sized nodes (the
///              bilinear pieces of self-attention, via McCormick
///              relaxations during backsubstitution).
///
/// Nodes carry concrete interval bounds, filled in topological order by
/// crown::computeAllBounds (CROWN-Backward) or crown::computeForwardBounds
/// (CROWN-BaF).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_CROWN_GRAPH_H
#define DEEPT_CROWN_GRAPH_H

#include "tensor/Matrix.h"

#include <vector>

namespace deept {
namespace crown {

using tensor::Matrix;

enum class NodeKind { Input, Affine, AddTwo, Unary, Mul };

enum class UnaryFn { Relu, Tanh, Exp, Recip, Sqrt };

/// Specification of the input perturbation: center x0 plus either an lp
/// ball (radius Eps on the masked dimensions) or a per-dimension box
/// (P = InfNorm with per-dimension radii).
struct InputSpec {
  Matrix Center;      // 1 x Dim
  double P = tensor::Matrix::InfNorm;
  /// Per-dimension radius. For p in {1, 2} only a uniform radius on the
  /// masked (non-zero) dimensions is supported, as in threat model T1.
  Matrix Radius;      // 1 x Dim
};

/// One entry of a sparse affine map: Out += V * In.
struct Triplet {
  size_t In;
  size_t Out;
  double V;
};

struct Node {
  NodeKind Kind;
  size_t Dim = 0;
  int In0 = -1;
  int In1 = -1;
  /// Affine map y = x W + b stored sparsely; the Transformer lowering's
  /// structural matrices (broadcasts, selections, per-row matmuls,
  /// reductions) are extremely sparse, and the backsubstitution's cost is
  /// proportional to nnz rather than the dense size.
  std::vector<Triplet> W;
  size_t InDim = 0;
  Matrix B; // Affine: 1 x Dim
  UnaryFn Fn = UnaryFn::Relu;
  /// Concrete interval bounds (1 x Dim), filled by computeAllBounds.
  Matrix Lo, Hi;
  bool HasBounds = false;
};

/// An append-only DAG; node ids are topological by construction.
class Graph {
public:
  int addInput(InputSpec Spec);
  /// Adds y = x W + b; W is converted to sparse form internally.
  int addAffine(int In, const Matrix &W, Matrix B);
  int addAddTwo(int A, int B);
  int addUnary(int In, UnaryFn Fn);
  int addMul(int A, int B);

  size_t size() const { return Nodes.size(); }
  Node &node(int Id) { return Nodes[Id]; }
  const Node &node(int Id) const { return Nodes[Id]; }
  const InputSpec &inputSpec() const { return Input; }

  /// Evaluates the graph concretely at an input assignment (tests /
  /// debugging). Returns the value of every node.
  std::vector<Matrix> evaluate(const Matrix &InputValue) const;

private:
  std::vector<Node> Nodes;
  InputSpec Input;
  int InputId = -1;
};

} // namespace crown
} // namespace deept

#endif // DEEPT_CROWN_GRAPH_H
