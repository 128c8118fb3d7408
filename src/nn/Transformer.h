//===- nn/Transformer.h - Encoder Transformer for classification -*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The encoder Transformer network of Section 3.1, specialised to binary
/// sequence classification exactly as the paper evaluates it: token
/// embedding + positional encoding, M layers of multi-head self-attention
/// and a ReLU feed-forward block (each with a residual connection and a
/// layer normalisation *without* division by the standard deviation by
/// default; the standard variant of Section 6.6 is available via
/// TransformerConfig::LayerNormStdDiv), first-token pooling through a tanh
/// layer, and a binary linear classifier.
///
/// The same weights are consumed by three execution engines: the concrete
/// forward pass here, the Multi-norm Zonotope propagation (verify/DeepT),
/// and the linear-bound graph (crown/). A Vision Transformer variant
/// replaces the embedding table with a linear patch embedding
/// (Appendix A.3).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_NN_TRANSFORMER_H
#define DEEPT_NN_TRANSFORMER_H

#include "autograd/Tape.h"
#include "tensor/Matrix.h"

#include <vector>

namespace deept {
namespace support {
class Rng;
} // namespace support

namespace nn {

using tensor::Matrix;

struct TransformerConfig {
  size_t VocabSize = 0;
  size_t MaxLen = 16;
  size_t EmbedDim = 32;
  size_t NumHeads = 4;
  size_t HiddenDim = 32;
  size_t NumLayers = 3;
  /// false (paper default): layer norm maps v to gamma*(v - mean(v)) +
  /// beta. true: standard layer norm dividing by the standard deviation.
  bool LayerNormStdDiv = false;
  /// Variance epsilon of the standard layer norm.
  double LnEps = 1e-6;

  size_t headDim() const { return EmbedDim / NumHeads; }
};

/// Weights of one Transformer layer (Figure 3).
struct TransformerLayer {
  Matrix Wq, Bq, Wk, Bk, Wv, Bv; // E x E / 1 x E (all heads fused)
  Matrix Wo, Bo;                 // E x E / 1 x E
  Matrix Ln1Gamma, Ln1Beta;      // 1 x E
  Matrix W1, B1;                 // E x H / 1 x H
  Matrix W2, B2;                 // H x E / 1 x E
  Matrix Ln2Gamma, Ln2Beta;      // 1 x E
};

/// The full classification network (Figure 2).
struct TransformerModel {
  TransformerConfig Config;
  Matrix Embedding;  // Vocab x E; frozen (pretrained-embedding stand-in)
  Matrix Positional; // MaxLen x E; frozen sinusoidal encoding
  std::vector<TransformerLayer> Layers;
  Matrix PoolW, PoolB; // E x E / 1 x E, tanh pooler
  Matrix ClsW, ClsB;   // E x 2 / 1 x 2

  /// Fresh model with Xavier-style random weights. \p Embedding rows are
  /// the frozen token embeddings (typically the corpus' embedding matrix).
  static TransformerModel init(const TransformerConfig &Config,
                               const Matrix &Embedding, support::Rng &Rng);

  /// Sinusoidal positional encoding matrix (MaxLen x E).
  static Matrix sinusoidalPositional(size_t MaxLen, size_t EmbedDim);

  /// Token embedding + positional encoding for a sequence (N x E).
  /// Throws support::Error (job_invalid, site "nn.embed") for a sequence
  /// longer than MaxLen or a token id outside the vocabulary.
  Matrix embed(const std::vector<size_t> &Tokens) const;

  /// Concrete forward pass from embeddings to logits (1 x 2).
  Matrix forwardEmbeddings(const Matrix &X) const;

  /// Concrete classification of a token sequence.
  size_t classify(const std::vector<size_t> &Tokens) const;

  /// Trainable parameters in a stable order (excludes the frozen
  /// embedding and positional encodings).
  std::vector<Matrix *> parameters();
  std::vector<const Matrix *> parameters() const;

  /// Pushes all trainable parameters onto \p T in parameters() order.
  std::vector<autograd::ValueId> pushParams(autograd::Tape &T) const;

  /// Builds the differentiable forward pass on \p T from embeddings node
  /// \p X (N x E) using parameter nodes \p Params (from pushParams).
  /// Returns the logits node (1 x 2).
  autograd::ValueId
  buildForward(autograd::Tape &T, autograd::ValueId X,
               const std::vector<autograd::ValueId> &Params) const;
};

/// Vision Transformer (Appendix A.3): images are cut into patches, each
/// patch is linearly embedded, then the encoder stack above runs
/// unchanged. The Backbone's embedding table is unused.
struct VisionTransformer {
  size_t ImageSide = 8;
  size_t PatchSide = 4;
  Matrix PatchW, PatchB; // PatchDim x E / 1 x E
  TransformerModel Backbone;

  static VisionTransformer init(size_t ImageSide, size_t PatchSide,
                                const TransformerConfig &Config,
                                support::Rng &Rng);

  size_t numPatches() const {
    size_t PerSide = ImageSide / PatchSide;
    return PerSide * PerSide;
  }
  size_t patchDim() const { return PatchSide * PatchSide; }

  /// Rearranges a flat 1 x Side^2 image into numPatches x patchDim rows.
  Matrix patchify(const Matrix &Pixels) const;

  /// Patch embedding (numPatches x E) including positional encoding.
  Matrix embedPixels(const Matrix &Pixels) const;

  Matrix forwardPixels(const Matrix &Pixels) const;
  size_t classify(const Matrix &Pixels) const;

  std::vector<Matrix *> parameters();
  std::vector<autograd::ValueId> pushParams(autograd::Tape &T) const;
  /// Forward from a pixels node (1 x Side^2) to logits.
  autograd::ValueId
  buildForward(autograd::Tape &T, autograd::ValueId Pixels,
               const std::vector<autograd::ValueId> &Params) const;
};

} // namespace nn
} // namespace deept

#endif // DEEPT_NN_TRANSFORMER_H
