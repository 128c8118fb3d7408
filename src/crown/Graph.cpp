//===- crown/Graph.cpp ----------------------------------------*- C++ -*-===//

#include "crown/Graph.h"

#include <cassert>
#include <cmath>

using namespace deept;
using namespace deept::crown;

int Graph::addInput(InputSpec Spec) {
  assert(InputId < 0 && "only one input node is supported");
  Node N;
  N.Kind = NodeKind::Input;
  N.Dim = Spec.Center.cols();
  // Input bounds are immediate. For lp balls the per-dimension range is
  // +- Eps on masked dims (the ball's bounding box), already encoded in
  // Radius.
  N.Lo = Spec.Center - Spec.Radius;
  N.Hi = Spec.Center + Spec.Radius;
  N.HasBounds = true;
  Nodes.push_back(std::move(N));
  Input = std::move(Spec);
  InputId = static_cast<int>(Nodes.size()) - 1;
  return InputId;
}

int Graph::addAffine(int In, const Matrix &W, Matrix B) {
  assert(In >= 0 && static_cast<size_t>(In) < Nodes.size() && "bad input");
  assert(W.rows() == Nodes[In].Dim && B.cols() == W.cols() &&
         B.rows() == 1 && "affine shape mismatch");
  Node N;
  N.Kind = NodeKind::Affine;
  N.Dim = W.cols();
  N.InDim = Nodes[In].Dim;
  N.In0 = In;
  for (size_t R = 0; R < W.rows(); ++R)
    for (size_t C = 0; C < W.cols(); ++C)
      if (W.at(R, C) != 0.0)
        N.W.push_back({R, C, W.at(R, C)});
  N.B = std::move(B);
  Nodes.push_back(std::move(N));
  return static_cast<int>(Nodes.size()) - 1;
}

int Graph::addAddTwo(int A, int B) {
  assert(Nodes[A].Dim == Nodes[B].Dim && "addTwo dimension mismatch");
  Node N;
  N.Kind = NodeKind::AddTwo;
  N.Dim = Nodes[A].Dim;
  N.In0 = A;
  N.In1 = B;
  Nodes.push_back(std::move(N));
  return static_cast<int>(Nodes.size()) - 1;
}

int Graph::addUnary(int In, UnaryFn Fn) {
  Node N;
  N.Kind = NodeKind::Unary;
  N.Dim = Nodes[In].Dim;
  N.In0 = In;
  N.Fn = Fn;
  Nodes.push_back(std::move(N));
  return static_cast<int>(Nodes.size()) - 1;
}

int Graph::addMul(int A, int B) {
  assert(Nodes[A].Dim == Nodes[B].Dim && "mul dimension mismatch");
  Node N;
  N.Kind = NodeKind::Mul;
  N.Dim = Nodes[A].Dim;
  N.In0 = A;
  N.In1 = B;
  Nodes.push_back(std::move(N));
  return static_cast<int>(Nodes.size()) - 1;
}

std::vector<Matrix> Graph::evaluate(const Matrix &InputValue) const {
  assert(InputValue.rows() == 1 &&
         InputValue.cols() == Nodes[InputId].Dim && "input shape mismatch");
  std::vector<Matrix> Vals(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case NodeKind::Input:
      Vals[I] = InputValue;
      break;
    case NodeKind::Affine: {
      Matrix Out = N.B;
      const Matrix &X = Vals[N.In0];
      for (const Triplet &T : N.W)
        Out.flat(T.Out) += X.flat(T.In) * T.V;
      Vals[I] = std::move(Out);
      break;
    }
    case NodeKind::AddTwo:
      Vals[I] = Vals[N.In0] + Vals[N.In1];
      break;
    case NodeKind::Unary: {
      Vals[I] = Vals[N.In0];
      switch (N.Fn) {
      case UnaryFn::Relu:
        Vals[I].applyFn([](double X) { return X > 0 ? X : 0.0; });
        break;
      case UnaryFn::Tanh:
        Vals[I].applyFn([](double X) { return std::tanh(X); });
        break;
      case UnaryFn::Exp:
        Vals[I].applyFn([](double X) { return std::exp(X); });
        break;
      case UnaryFn::Recip:
        Vals[I].applyFn([](double X) { return 1.0 / X; });
        break;
      case UnaryFn::Sqrt:
        Vals[I].applyFn([](double X) { return std::sqrt(X); });
        break;
      }
      break;
    }
    case NodeKind::Mul:
      Vals[I] = tensor::hadamard(Vals[N.In0], Vals[N.In1]);
      break;
    }
  }
  return Vals;
}
