//===- autograd/Adam.h - Adam optimizer ------------------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Adam optimizer (Kingma & Ba 2015) over a set of registered
/// parameter matrices; the training substrate for the Transformer and
/// feed-forward models.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_AUTOGRAD_ADAM_H
#define DEEPT_AUTOGRAD_ADAM_H

#include "tensor/Matrix.h"

#include <vector>

namespace deept {
namespace autograd {

using tensor::Matrix;

struct AdamOptions {
  double LearningRate = 1e-3;
  double Beta1 = 0.9;
  double Beta2 = 0.999;
  double Epsilon = 1e-8;
  /// Gradients with a larger global l2 norm are rescaled to this value
  /// (0 disables clipping).
  double GradClipNorm = 1.0;
};

/// Adam over externally owned parameter matrices. Parameters are
/// registered once; each step takes the matching list of gradients.
class Adam {
public:
  explicit Adam(AdamOptions Opts = AdamOptions()) : Opts(Opts) {}

  /// Registers a parameter; returns its slot index.
  size_t registerParam(Matrix *Param);

  /// Applies one update. \p Grads must align with registration order.
  void step(const std::vector<Matrix> &Grads);

private:
  AdamOptions Opts;
  std::vector<Matrix *> Params;
  std::vector<Matrix> FirstMoment;
  std::vector<Matrix> SecondMoment;
  long StepCount = 0;
};

} // namespace autograd
} // namespace deept

#endif // DEEPT_AUTOGRAD_ADAM_H
