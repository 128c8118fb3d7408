//===- crown/TransformerGraph.cpp -----------------------------*- C++ -*-===//

#include "crown/TransformerGraph.h"

#include <cassert>
#include <cmath>

using namespace deept;
using namespace deept::crown;
using tensor::Matrix;

namespace {

/// (N*E) -> (N*D) map applying W (E x D) to each row of the N x E view.
Matrix rightMatmulMap(size_t N, size_t E, const Matrix &W) {
  size_t D = W.cols();
  Matrix M(N * E, N * D);
  for (size_t I = 0; I < N; ++I)
    for (size_t R = 0; R < E; ++R)
      for (size_t C = 0; C < D; ++C)
        M.at(I * E + R, I * D + C) = W.at(R, C);
  return M;
}

/// Bias 1 x (N*D) tiling b (1 x D) over the N rows.
Matrix tiledBias(size_t N, const Matrix &B) {
  size_t D = B.cols();
  Matrix Out(1, N * D);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < D; ++C)
      Out.at(0, I * D + C) = B.at(0, C);
  return Out;
}

/// (N*E) -> (N*E) map subtracting each row's mean.
Matrix subRowMeanMap(size_t N, size_t E) {
  Matrix M(N * E, N * E);
  double Inv = 1.0 / static_cast<double>(E);
  for (size_t I = 0; I < N; ++I)
    for (size_t R = 0; R < E; ++R)
      for (size_t C = 0; C < E; ++C)
        M.at(I * E + R, I * E + C) = (R == C ? 1.0 : 0.0) - Inv;
  return M;
}

/// Diagonal map scaling column c of each row by Gamma[c].
Matrix scaleColsMap(size_t N, const Matrix &Gamma) {
  size_t E = Gamma.cols();
  Matrix M(N * E, N * E);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < E; ++C)
      M.at(I * E + C, I * E + C) = Gamma.at(0, C);
  return M;
}

/// Selection map picking columns [C0, C1) of each row: (N*E) -> (N*(C1-C0)).
Matrix selectColsMap(size_t N, size_t E, size_t C0, size_t C1) {
  size_t D = C1 - C0;
  Matrix M(N * E, N * D);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < D; ++C)
      M.at(I * E + C0 + C, I * D + C) = 1.0;
  return M;
}

/// Placement map embedding an (N*D) head output at column offset C0 of an
/// (N*E) tensor.
Matrix placeColsMap(size_t N, size_t D, size_t E, size_t C0) {
  Matrix M(N * D, N * E);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < D; ++C)
      M.at(I * D + C, I * E + C0 + C) = 1.0;
  return M;
}

} // namespace

InputSpec deept::crown::lpBallSpec(const nn::TransformerModel &Model,
                                   const std::vector<size_t> &Tokens,
                                   size_t Word, double P, double Radius) {
  Matrix X = Model.embed(Tokens);
  size_t E = X.cols();
  InputSpec Spec;
  Spec.Center = X.reshaped(1, X.size());
  Spec.P = P;
  Spec.Radius = Matrix(1, X.size(), 0.0);
  for (size_t C = 0; C < E; ++C)
    Spec.Radius.at(0, Word * E + C) = Radius;
  return Spec;
}

InputSpec deept::crown::boxSpec(const Matrix &Lo, const Matrix &Hi) {
  InputSpec Spec;
  Matrix Center = (Lo + Hi) * 0.5;
  Matrix Radius = (Hi - Lo) * 0.5;
  Spec.Center = Center.reshaped(1, Center.size());
  Spec.Radius = Radius.reshaped(1, Radius.size());
  Spec.P = Matrix::InfNorm;
  return Spec;
}

BuiltGraph deept::crown::buildTransformerGraph(
    const nn::TransformerModel &Model, size_t SeqLen, InputSpec Spec,
    size_t TrueClass) {
  const nn::TransformerConfig &C = Model.Config;
  size_t N = SeqLen;
  size_t E = C.EmbedDim;
  size_t A = C.NumHeads;
  size_t Dk = C.headDim();
  double Scale = 1.0 / std::sqrt(static_cast<double>(Dk));
  assert(Spec.Center.cols() == N * E && "input spec dimension mismatch");

  BuiltGraph Built;
  Graph &G = Built.G;
  int X = G.addInput(std::move(Spec));

  for (size_t L = 0; L < Model.Layers.size(); ++L) {
    const nn::TransformerLayer &Layer = Model.Layers[L];

    int Q = G.addAffine(X, rightMatmulMap(N, E, Layer.Wq),
                        tiledBias(N, Layer.Bq));
    int K = G.addAffine(X, rightMatmulMap(N, E, Layer.Wk),
                        tiledBias(N, Layer.Bk));
    int V = G.addAffine(X, rightMatmulMap(N, E, Layer.Wv),
                        tiledBias(N, Layer.Bv));

    int HeadsSum = -1;
    for (size_t H = 0; H < A; ++H) {
      int Qh = G.addAffine(Q, selectColsMap(N, E, H * Dk, (H + 1) * Dk),
                           Matrix(1, N * Dk));
      int Kh = G.addAffine(K, selectColsMap(N, E, H * Dk, (H + 1) * Dk),
                           Matrix(1, N * Dk));
      int Vh = G.addAffine(V, selectColsMap(N, E, H * Dk, (H + 1) * Dk),
                           Matrix(1, N * Dk));

      // Scores[i][j] = sum_k Qh[i][k] * Kh[j][k] * Scale. Broadcast Qh and
      // Kh to the (i, j, k) grid, multiply, then sum over k.
      Matrix QB(N * Dk, N * N * Dk); // Qh[(i,k)] -> (i,j,k)
      Matrix KB(N * Dk, N * N * Dk); // Kh[(j,k)] -> (i,j,k)
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          for (size_t Kk = 0; Kk < Dk; ++Kk) {
            size_t Out = (I * N + J) * Dk + Kk;
            QB.at(I * Dk + Kk, Out) = 1.0;
            KB.at(J * Dk + Kk, Out) = 1.0;
          }
      int QBr = G.addAffine(Qh, std::move(QB), Matrix(1, N * N * Dk));
      int KBr = G.addAffine(Kh, std::move(KB), Matrix(1, N * N * Dk));
      int QK = G.addMul(QBr, KBr);
      Matrix SumK(N * N * Dk, N * N);
      for (size_t P = 0; P < N * N; ++P)
        for (size_t Kk = 0; Kk < Dk; ++Kk)
          SumK.at(P * Dk + Kk, P) = Scale;
      int Scores = G.addAffine(QK, std::move(SumK), Matrix(1, N * N));

      // Naive softmax: exp, row sums, reciprocal, broadcast, multiply.
      int Exped = G.addUnary(Scores, UnaryFn::Exp);
      Matrix RowSum(N * N, N);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          RowSum.at(I * N + J, I) = 1.0;
      int Sums = G.addAffine(Exped, std::move(RowSum), Matrix(1, N));
      int Recip = G.addUnary(Sums, UnaryFn::Recip);
      Matrix RecipB(N, N * N);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          RecipB.at(I, I * N + J) = 1.0;
      int RecipBr = G.addAffine(Recip, std::move(RecipB), Matrix(1, N * N));
      int Probs = G.addMul(Exped, RecipBr);

      // Out[(i,d)] = sum_j Probs[(i,j)] * Vh[(j,d)].
      Matrix PB(N * N, N * N * Dk);
      Matrix VB(N * Dk, N * N * Dk);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          for (size_t D = 0; D < Dk; ++D) {
            size_t Out = (I * N + J) * Dk + D;
            PB.at(I * N + J, Out) = 1.0;
            VB.at(J * Dk + D, Out) = 1.0;
          }
      int PBr = G.addAffine(Probs, std::move(PB), Matrix(1, N * N * Dk));
      int VBr = G.addAffine(Vh, std::move(VB), Matrix(1, N * N * Dk));
      int PV = G.addMul(PBr, VBr);
      Matrix SumJ(N * N * Dk, N * Dk);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          for (size_t D = 0; D < Dk; ++D)
            SumJ.at((I * N + J) * Dk + D, I * Dk + D) = 1.0;
      int HeadOut = G.addAffine(PV, std::move(SumJ), Matrix(1, N * Dk));

      int Placed = G.addAffine(HeadOut, placeColsMap(N, Dk, E, H * Dk),
                               Matrix(1, N * E));
      HeadsSum = HeadsSum < 0 ? Placed : G.addAddTwo(HeadsSum, Placed);
    }

    int Z = G.addAffine(HeadsSum, rightMatmulMap(N, E, Layer.Wo),
                        tiledBias(N, Layer.Bo));
    int V1 = G.addAddTwo(X, Z);
    auto LayerNorm = [&](int In, const Matrix &Gamma, const Matrix &Beta) {
      int Centered = G.addAffine(In, subRowMeanMap(N, E), Matrix(1, N * E));
      if (C.LayerNormStdDiv) {
        int Sq = G.addMul(Centered, Centered);
        Matrix MeanMap(N * E, N);
        for (size_t I = 0; I < N; ++I)
          for (size_t Cc = 0; Cc < E; ++Cc)
            MeanMap.at(I * E + Cc, I) = 1.0 / static_cast<double>(E);
        int Var = G.addAffine(Sq, std::move(MeanMap), Matrix(1, N, C.LnEps));
        int Std = G.addUnary(Var, UnaryFn::Sqrt);
        int Inv = G.addUnary(Std, UnaryFn::Recip);
        Matrix InvB(N, N * E);
        for (size_t I = 0; I < N; ++I)
          for (size_t Cc = 0; Cc < E; ++Cc)
            InvB.at(I, I * E + Cc) = 1.0;
        int InvBr = G.addAffine(Inv, std::move(InvB), Matrix(1, N * E));
        Centered = G.addMul(Centered, InvBr);
      }
      return G.addAffine(Centered, scaleColsMap(N, Gamma), tiledBias(N, Beta));
    };
    int X1 = LayerNorm(V1, Layer.Ln1Gamma, Layer.Ln1Beta);

    int Hid = G.addUnary(
        G.addAffine(X1, rightMatmulMap(N, E, Layer.W1),
                    tiledBias(N, Layer.B1)),
        UnaryFn::Relu);
    int F = G.addAffine(Hid, rightMatmulMap(N, C.HiddenDim, Layer.W2),
                        tiledBias(N, Layer.B2));
    int V2 = G.addAddTwo(X1, F);
    X = LayerNorm(V2, Layer.Ln2Gamma, Layer.Ln2Beta);
  }

  // Pooler and classifier.
  int Pooled = G.addAffine(X, selectColsMap(1, N * E, 0, E), Matrix(1, E));
  int PoolLin = G.addAffine(Pooled, Matrix(Model.PoolW), Matrix(Model.PoolB));
  int Tn = G.addUnary(PoolLin, UnaryFn::Tanh);
  Built.Logits = G.addAffine(Tn, Matrix(Model.ClsW), Matrix(Model.ClsB));
  Matrix MarginW(2, 1);
  MarginW.at(TrueClass, 0) = 1.0;
  MarginW.at(1 - TrueClass, 0) = -1.0;
  Built.Margin = G.addAffine(Built.Logits, std::move(MarginW), Matrix(1, 1));
  return Built;
}
