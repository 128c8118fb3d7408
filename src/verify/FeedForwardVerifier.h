//===- verify/FeedForwardVerifier.h - MLP zonotope verifier ----*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-norm Zonotope certification of plain ReLU networks (the paper's
/// appendix A.2 experiment): the domain is general, so the verifier is a
/// direct composition of the affine and ReLU transformers.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_FEEDFORWARDVERIFIER_H
#define DEEPT_VERIFY_FEEDFORWARDVERIFIER_H

#include "nn/FeedForwardNet.h"
#include "verify/Observer.h"
#include "zono/Zonotope.h"

namespace deept {
namespace verify {

/// Propagates an input zonotope (1 x In) to the logits zonotope through
/// the soundness checkpoints "ffn.input" and one "ffn.layer_output" per
/// layer, inside the stages "ffn.propagate" and "ffn.layer[L]"
/// (verify::Stage), delivering onLayer / onCheckpoint / onStage to \p Obs.
zono::Zonotope propagateFeedForward(const nn::FeedForwardNet &Net,
                                    const zono::Zonotope &Input,
                                    const ObserverList &Obs = {});

/// Lower bound of logits[TrueClass] - logits[1 - TrueClass], as one
/// observed run (a CertificateBuilder in \p Obs records it for replay by
/// tools/deept_check).
double feedForwardMargin(const nn::FeedForwardNet &Net,
                         const zono::Zonotope &Input, size_t TrueClass,
                         const ObserverList &Obs = {});

/// Certifies an lp ball of radius \p Radius around \p X (1 x In).
bool certifyFeedForwardLpBall(const nn::FeedForwardNet &Net,
                              const tensor::Matrix &X, double P,
                              double Radius, size_t TrueClass,
                              const ObserverList &Obs = {});

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_FEEDFORWARDVERIFIER_H
