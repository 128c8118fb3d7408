//===- verify/FeedForwardVerifier.cpp -------------------------*- C++ -*-===//

#include "verify/FeedForwardVerifier.h"

#include "zono/Elementwise.h"

#include <cassert>

using namespace deept;
using namespace deept::verify;
using namespace deept::zono;
using tensor::Matrix;

Zonotope deept::verify::propagateFeedForward(const nn::FeedForwardNet &Net,
                                             const Zonotope &Input,
                                             const ObserverList &Obs) {
  assert(Input.cols() == Net.inputDim() && "input width mismatch");
  Stage Propagate(Obs, "ffn.propagate");
  Zonotope H = Input;
  Propagate.checkpoint(H, "ffn.input");
  for (size_t L = 0; L < Net.numLayers(); ++L) {
    Stage Layer(Obs, "ffn.layer", static_cast<int>(L));
    H = H.matmulRightConst(Net.Weights[L]).addRowBroadcast(Net.Biases[L]);
    if (L + 1 != Net.numLayers())
      H = applyRelu(H);
    Layer.checkpoint(H, "ffn.layer_output");
  }
  return H;
}

double deept::verify::feedForwardMargin(const nn::FeedForwardNet &Net,
                                        const Zonotope &Input,
                                        size_t TrueClass,
                                        const ObserverList &Obs) {
  RunInfo Info;
  Info.Kind = "ffn";
  Info.TrueClass = TrueClass;
  Info.Layers = Net.numLayers();
  Info.Embed = Net.inputDim();
  RunScope Run(Obs, Info, Input);
  return marginOf(Obs, propagateFeedForward(Net, Input, Obs), TrueClass);
}

bool deept::verify::certifyFeedForwardLpBall(const nn::FeedForwardNet &Net,
                                             const Matrix &X, double P,
                                             double Radius,
                                             size_t TrueClass,
                                             const ObserverList &Obs) {
  Zonotope In = Zonotope::lpBall(X, P, Radius);
  return feedForwardMargin(Net, In, TrueClass, Obs) > 0.0;
}
