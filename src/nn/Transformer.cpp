//===- nn/Transformer.cpp -------------------------------------*- C++ -*-===//

#include "nn/Transformer.h"

#include "support/Error.h"
#include "support/Rng.h"

#include <cassert>
#include <cmath>
#include <string>

using namespace deept;
using namespace deept::nn;
using autograd::Tape;
using autograd::ValueId;

namespace {

Matrix xavier(size_t Rows, size_t Cols, support::Rng &Rng) {
  return Matrix::randn(Rows, Cols, Rng, std::sqrt(1.0 / Rows));
}

/// Concrete layer norm; the paper's default drops the division by the
/// standard deviation (Section 3.1), which Section 6.6 shows certifies
/// much better while costing almost no accuracy.
Matrix layerNorm(const Matrix &V, const Matrix &Gamma, const Matrix &Beta,
                 bool StdDiv, double Eps) {
  Matrix Centered = V;
  Matrix Means = V.rowMeans();
  for (size_t R = 0; R < V.rows(); ++R)
    for (size_t C = 0; C < V.cols(); ++C)
      Centered.at(R, C) -= Means.at(R, 0);
  if (StdDiv) {
    for (size_t R = 0; R < V.rows(); ++R) {
      double Var = 0.0;
      for (size_t C = 0; C < V.cols(); ++C)
        Var += Centered.at(R, C) * Centered.at(R, C);
      Var /= static_cast<double>(V.cols());
      double InvStd = 1.0 / std::sqrt(Var + Eps);
      for (size_t C = 0; C < V.cols(); ++C)
        Centered.at(R, C) *= InvStd;
    }
  }
  for (size_t R = 0; R < V.rows(); ++R)
    for (size_t C = 0; C < V.cols(); ++C)
      Centered.at(R, C) = Centered.at(R, C) * Gamma.at(0, C) + Beta.at(0, C);
  return Centered;
}

} // namespace

TransformerModel TransformerModel::init(const TransformerConfig &Config,
                                        const Matrix &Embedding,
                                        support::Rng &Rng) {
  assert(Config.EmbedDim % Config.NumHeads == 0 &&
         "embedding dim must be divisible by the head count");
  assert(Embedding.cols() == Config.EmbedDim && "embedding width mismatch");
  TransformerModel M;
  M.Config = Config;
  M.Config.VocabSize = Embedding.rows();
  M.Embedding = Embedding;
  M.Positional = sinusoidalPositional(Config.MaxLen, Config.EmbedDim);
  size_t E = Config.EmbedDim, H = Config.HiddenDim;
  // Residual-branch outputs are scaled down with depth (GPT-2 style) so
  // deep stacks train stably.
  double ResidualScale =
      1.0 / std::sqrt(2.0 * static_cast<double>(Config.NumLayers));
  for (size_t L = 0; L < Config.NumLayers; ++L) {
    TransformerLayer Layer;
    Layer.Wq = xavier(E, E, Rng);
    Layer.Bq = Matrix(1, E);
    Layer.Wk = xavier(E, E, Rng);
    Layer.Bk = Matrix(1, E);
    Layer.Wv = xavier(E, E, Rng);
    Layer.Bv = Matrix(1, E);
    Layer.Wo = xavier(E, E, Rng) * ResidualScale;
    Layer.Bo = Matrix(1, E);
    Layer.Ln1Gamma = Matrix(1, E, 1.0);
    Layer.Ln1Beta = Matrix(1, E);
    Layer.W1 = xavier(E, H, Rng);
    Layer.B1 = Matrix(1, H);
    Layer.W2 = xavier(H, E, Rng) * ResidualScale;
    Layer.B2 = Matrix(1, E);
    Layer.Ln2Gamma = Matrix(1, E, 1.0);
    Layer.Ln2Beta = Matrix(1, E);
    M.Layers.push_back(std::move(Layer));
  }
  M.PoolW = xavier(E, E, Rng);
  M.PoolB = Matrix(1, E);
  M.ClsW = xavier(E, 2, Rng);
  M.ClsB = Matrix(1, 2);
  return M;
}

Matrix TransformerModel::sinusoidalPositional(size_t MaxLen,
                                              size_t EmbedDim) {
  Matrix P(MaxLen, EmbedDim);
  for (size_t Pos = 0; Pos < MaxLen; ++Pos) {
    for (size_t I = 0; I < EmbedDim; ++I) {
      double Freq =
          std::pow(10000.0, -2.0 * static_cast<double>(I / 2) / EmbedDim);
      double Angle = static_cast<double>(Pos) * Freq;
      P.at(Pos, I) = (I % 2 == 0) ? std::sin(Angle) : std::cos(Angle);
    }
  }
  // Scale down so positions do not dominate the word embeddings.
  P *= 0.1;
  return P;
}

Matrix TransformerModel::embed(const std::vector<size_t> &Tokens) const {
  using support::Error;
  using support::ErrorCode;
  if (Tokens.size() > Config.MaxLen)
    throw Error(ErrorCode::JobInvalid, "nn.embed",
                "sequence of " + std::to_string(Tokens.size()) +
                    " tokens exceeds the model's MaxLen " +
                    std::to_string(Config.MaxLen));
  Matrix X(Tokens.size(), Config.EmbedDim);
  for (size_t I = 0; I < Tokens.size(); ++I) {
    if (Tokens[I] >= Embedding.rows())
      throw Error(ErrorCode::JobInvalid, "nn.embed",
                  "token id " + std::to_string(Tokens[I]) +
                      " at position " + std::to_string(I) +
                      " is outside the vocabulary of " +
                      std::to_string(Embedding.rows()));
    for (size_t C = 0; C < Config.EmbedDim; ++C)
      X.at(I, C) = Embedding.at(Tokens[I], C) + Positional.at(I, C);
  }
  return X;
}

Matrix TransformerModel::forwardEmbeddings(const Matrix &X0) const {
  size_t E = Config.EmbedDim;
  size_t A = Config.NumHeads;
  size_t Dk = Config.headDim();
  double Scale = 1.0 / std::sqrt(static_cast<double>(Dk));
  Matrix X = X0;
  for (const TransformerLayer &L : Layers) {
    // Multi-head self-attention (Eq. 1).
    Matrix Q = tensor::addRowBroadcast(tensor::matmul(X, L.Wq), L.Bq);
    Matrix K = tensor::addRowBroadcast(tensor::matmul(X, L.Wk), L.Bk);
    Matrix V = tensor::addRowBroadcast(tensor::matmul(X, L.Wv), L.Bv);
    Matrix Heads(X.rows(), E);
    for (size_t H = 0; H < A; ++H) {
      Matrix Qh = Q.colSlice(H * Dk, (H + 1) * Dk);
      Matrix Kh = K.colSlice(H * Dk, (H + 1) * Dk);
      Matrix Vh = V.colSlice(H * Dk, (H + 1) * Dk);
      Matrix Scores = tensor::matmulTransposedB(Qh, Kh) * Scale;
      Matrix Probs = tensor::rowSoftmax(Scores);
      Heads.setBlock(0, H * Dk, tensor::matmul(Probs, Vh));
    }
    Matrix Z = tensor::addRowBroadcast(tensor::matmul(Heads, L.Wo), L.Bo);
    Matrix V1 = X + Z; // residual
    Matrix X1 = layerNorm(V1, L.Ln1Gamma, L.Ln1Beta, Config.LayerNormStdDiv,
                          Config.LnEps);
    // Feed-forward block.
    Matrix Hid = tensor::addRowBroadcast(tensor::matmul(X1, L.W1), L.B1);
    Hid.applyFn([](double X2) { return X2 > 0 ? X2 : 0.0; });
    Matrix F = tensor::addRowBroadcast(tensor::matmul(Hid, L.W2), L.B2);
    Matrix V2 = X1 + F; // residual
    X = layerNorm(V2, L.Ln2Gamma, L.Ln2Beta, Config.LayerNormStdDiv,
                  Config.LnEps);
  }
  // Pooling: first output embedding -> tanh layer -> binary classifier.
  Matrix Pooled = X.rowSlice(0, 1);
  Matrix T = tensor::addRowBroadcast(tensor::matmul(Pooled, PoolW), PoolB);
  T.applyFn([](double V) { return std::tanh(V); });
  return tensor::addRowBroadcast(tensor::matmul(T, ClsW), ClsB);
}

size_t TransformerModel::classify(const std::vector<size_t> &Tokens) const {
  return forwardEmbeddings(embed(Tokens)).argmax();
}

std::vector<Matrix *> TransformerModel::parameters() {
  std::vector<Matrix *> P;
  for (TransformerLayer &L : Layers) {
    for (Matrix *M :
         {&L.Wq, &L.Bq, &L.Wk, &L.Bk, &L.Wv, &L.Bv, &L.Wo, &L.Bo,
          &L.Ln1Gamma, &L.Ln1Beta, &L.W1, &L.B1, &L.W2, &L.B2, &L.Ln2Gamma,
          &L.Ln2Beta})
      P.push_back(M);
  }
  P.push_back(&PoolW);
  P.push_back(&PoolB);
  P.push_back(&ClsW);
  P.push_back(&ClsB);
  return P;
}

std::vector<const Matrix *> TransformerModel::parameters() const {
  auto NonConst = const_cast<TransformerModel *>(this)->parameters();
  return std::vector<const Matrix *>(NonConst.begin(), NonConst.end());
}

std::vector<ValueId> TransformerModel::pushParams(Tape &T) const {
  std::vector<ValueId> Ids;
  for (const Matrix *M : parameters())
    Ids.push_back(T.input(*M));
  return Ids;
}

ValueId TransformerModel::buildForward(
    Tape &T, ValueId X, const std::vector<ValueId> &Params) const {
  size_t E = Config.EmbedDim;
  size_t A = Config.NumHeads;
  size_t Dk = Config.headDim();
  double Scale = 1.0 / std::sqrt(static_cast<double>(Dk));
  size_t PerLayer = 16;
  assert(Params.size() == Layers.size() * PerLayer + 4 &&
         "parameter node list does not match the model");

  auto LayerNormNode = [&](ValueId V, ValueId Gamma, ValueId Beta) {
    ValueId Centered = T.subRowMean(V);
    if (Config.LayerNormStdDiv) {
      ValueId Sq = T.hadamard(Centered, Centered);
      ValueId Var = T.rowMeans(Sq);
      ValueId VarEps =
          T.add(Var, T.input(Matrix(T.value(Var).rows(), 1, Config.LnEps)));
      ValueId InvStd = T.recip(T.sqrtOp(VarEps));
      Centered = T.mulColBroadcast(Centered, InvStd);
    }
    return T.addRowBroadcast(T.mulRowBroadcast(Centered, Gamma), Beta);
  };

  for (size_t L = 0; L < Layers.size(); ++L) {
    const ValueId *P = Params.data() + L * PerLayer;
    ValueId Q = T.addRowBroadcast(T.matmul(X, P[0]), P[1]);
    ValueId K = T.addRowBroadcast(T.matmul(X, P[2]), P[3]);
    ValueId V = T.addRowBroadcast(T.matmul(X, P[4]), P[5]);
    std::vector<ValueId> Heads;
    for (size_t H = 0; H < A; ++H) {
      ValueId Qh = T.colSlice(Q, H * Dk, (H + 1) * Dk);
      ValueId Kh = T.colSlice(K, H * Dk, (H + 1) * Dk);
      ValueId Vh = T.colSlice(V, H * Dk, (H + 1) * Dk);
      ValueId Scores = T.scale(T.matmulTB(Qh, Kh), Scale);
      ValueId Probs = T.rowSoftmax(Scores);
      Heads.push_back(T.matmul(Probs, Vh));
    }
    ValueId HeadsCat = T.concatCols(Heads);
    ValueId Z = T.addRowBroadcast(T.matmul(HeadsCat, P[6]), P[7]);
    ValueId V1 = T.add(X, Z);
    ValueId X1 = LayerNormNode(V1, P[8], P[9]);
    ValueId Hid = T.relu(T.addRowBroadcast(T.matmul(X1, P[10]), P[11]));
    ValueId F = T.addRowBroadcast(T.matmul(Hid, P[12]), P[13]);
    ValueId V2 = T.add(X1, F);
    X = LayerNormNode(V2, P[14], P[15]);
    (void)E;
  }
  size_t Base = Layers.size() * PerLayer;
  ValueId Pooled = T.rowSlice(X, 0, 1);
  ValueId Tn = T.tanhOp(
      T.addRowBroadcast(T.matmul(Pooled, Params[Base]), Params[Base + 1]));
  return T.addRowBroadcast(T.matmul(Tn, Params[Base + 2]), Params[Base + 3]);
}

//===----------------------------------------------------------------------===//
// VisionTransformer
//===----------------------------------------------------------------------===//

VisionTransformer VisionTransformer::init(size_t ImageSide, size_t PatchSide,
                                          const TransformerConfig &Config,
                                          support::Rng &Rng) {
  assert(ImageSide % PatchSide == 0 && "patch must tile the image");
  VisionTransformer V;
  V.ImageSide = ImageSide;
  V.PatchSide = PatchSide;
  size_t PatchDim = PatchSide * PatchSide;
  V.PatchW = xavier(PatchDim, Config.EmbedDim, Rng);
  V.PatchB = Matrix(1, Config.EmbedDim);
  TransformerConfig BC = Config;
  BC.MaxLen = std::max(BC.MaxLen, V.numPatches());
  // The backbone needs an embedding table only structurally.
  V.Backbone = TransformerModel::init(BC, Matrix(1, Config.EmbedDim), Rng);
  return V;
}

Matrix VisionTransformer::patchify(const Matrix &Pixels) const {
  assert(Pixels.size() == ImageSide * ImageSide && "pixel count mismatch");
  size_t PerSide = ImageSide / PatchSide;
  Matrix Out(numPatches(), patchDim());
  for (size_t PR = 0; PR < PerSide; ++PR)
    for (size_t PC = 0; PC < PerSide; ++PC) {
      size_t Patch = PR * PerSide + PC;
      for (size_t R = 0; R < PatchSide; ++R)
        for (size_t C = 0; C < PatchSide; ++C) {
          size_t Pixel = (PR * PatchSide + R) * ImageSide + PC * PatchSide + C;
          Out.at(Patch, R * PatchSide + C) = Pixels.flat(Pixel);
        }
    }
  return Out;
}

Matrix VisionTransformer::embedPixels(const Matrix &Pixels) const {
  Matrix Patches = patchify(Pixels);
  Matrix X = tensor::addRowBroadcast(tensor::matmul(Patches, PatchW), PatchB);
  for (size_t R = 0; R < X.rows(); ++R)
    for (size_t C = 0; C < X.cols(); ++C)
      X.at(R, C) += Backbone.Positional.at(R, C);
  return X;
}

Matrix VisionTransformer::forwardPixels(const Matrix &Pixels) const {
  return Backbone.forwardEmbeddings(embedPixels(Pixels));
}

size_t VisionTransformer::classify(const Matrix &Pixels) const {
  return forwardPixels(Pixels).argmax();
}

std::vector<Matrix *> VisionTransformer::parameters() {
  std::vector<Matrix *> P = {&PatchW, &PatchB};
  for (Matrix *M : Backbone.parameters())
    P.push_back(M);
  return P;
}

std::vector<ValueId> VisionTransformer::pushParams(Tape &T) const {
  std::vector<ValueId> Ids = {T.input(PatchW), T.input(PatchB)};
  for (ValueId Id : Backbone.pushParams(T))
    Ids.push_back(Id);
  return Ids;
}

ValueId VisionTransformer::buildForward(
    Tape &T, ValueId Pixels, const std::vector<ValueId> &Params) const {
  // Patchify is a fixed permutation: express it as a constant matmul
  // Patches = Perm * PixelsCol reshaped. We instead gather via a constant
  // linear map: Patches (NumPatches x PatchDim) = P * diag? Simplest:
  // build a constant permutation matrix applied to the transposed pixels.
  size_t NP = numPatches(), PD = patchDim();
  Matrix Perm(NP * PD, ImageSide * ImageSide);
  size_t PerSide = ImageSide / PatchSide;
  for (size_t PR = 0; PR < PerSide; ++PR)
    for (size_t PC = 0; PC < PerSide; ++PC) {
      size_t Patch = PR * PerSide + PC;
      for (size_t R = 0; R < PatchSide; ++R)
        for (size_t C = 0; C < PatchSide; ++C) {
          size_t Pixel = (PR * PatchSide + R) * ImageSide + PC * PatchSide + C;
          Perm.at(Patch * PD + R * PatchSide + C, Pixel) = 1.0;
        }
    }
  // Pixels is 1 x Side^2; Flat = Pixels * Perm^T is 1 x (NP * PD).
  ValueId PermId = T.input(Perm);
  ValueId Flat = T.matmulTB(Pixels, PermId);
  // Reshape 1 x (NP*PD) to NP x PD with a stack of row slices.
  std::vector<ValueId> Rows;
  for (size_t P = 0; P < NP; ++P)
    Rows.push_back(T.colSlice(Flat, P * PD, (P + 1) * PD));
  // Stack rows: transpose each to PD x 1, concat cols, transpose back.
  std::vector<ValueId> Cols;
  for (ValueId R : Rows)
    Cols.push_back(T.transpose(R));
  ValueId Patches = T.transpose(T.concatCols(Cols));
  ValueId X = T.addRowBroadcast(T.matmul(Patches, Params[0]), Params[1]);
  ValueId Pos = T.input(
      Backbone.Positional.rowSlice(0, NP));
  X = T.add(X, Pos);
  std::vector<ValueId> BackboneParams(Params.begin() + 2, Params.end());
  return Backbone.buildForward(T, X, BackboneParams);
}
