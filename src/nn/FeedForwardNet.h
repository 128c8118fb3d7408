//===- nn/FeedForwardNet.h - ReLU multi-layer perceptron -------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain fully-connected ReLU network with a linear classifier head,
/// used by the appendix A.2 experiment (the paper's MNIST 1-vs-7 DNN with
/// hidden sizes 10, 50, 10) and as the simplest target for the verifiers.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_NN_FEEDFORWARDNET_H
#define DEEPT_NN_FEEDFORWARDNET_H

#include "autograd/Tape.h"
#include "tensor/Matrix.h"

#include <vector>

namespace deept {
namespace support {
class Rng;
} // namespace support

namespace nn {

using tensor::Matrix;

/// A ReLU MLP: Linear -> ReLU -> ... -> Linear (logits).
struct FeedForwardNet {
  std::vector<Matrix> Weights; // layer i: In_i x Out_i
  std::vector<Matrix> Biases;  // 1 x Out_i

  /// Builds a net with the given layer sizes, e.g. {64, 10, 50, 10, 2}.
  static FeedForwardNet init(const std::vector<size_t> &Sizes,
                             support::Rng &Rng);

  size_t numLayers() const { return Weights.size(); }
  size_t inputDim() const { return Weights.front().rows(); }

  /// Concrete forward: X is 1 x In, returns 1 x Out logits.
  Matrix forward(const Matrix &X) const;
  size_t classify(const Matrix &X) const;

  std::vector<Matrix *> parameters();
  std::vector<autograd::ValueId> pushParams(autograd::Tape &T) const;
  autograd::ValueId
  buildForward(autograd::Tape &T, autograd::ValueId X,
               const std::vector<autograd::ValueId> &Params) const;
};

} // namespace nn
} // namespace deept

#endif // DEEPT_NN_FEEDFORWARDNET_H
