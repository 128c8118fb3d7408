//===- verify/Certificate.cpp ---------------------------------*- C++ -*-===//

#include "verify/Certificate.h"

#include "support/Crc.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "tensor/Kernels.h"
#include "tensor/Matrix.h"
#include "zono/Zonotope.h"

#include <utility>

using namespace deept;
using namespace deept::verify;
using support::jsonEscape;
using support::jsonNumber;
using tensor::Matrix;

namespace {

void appendNumberArray(std::string &Out, const std::vector<double> &V) {
  Out += "[";
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ",";
    Out += jsonNumber(V[I]);
  }
  Out += "]";
}

std::vector<double> flatCopy(const Matrix &M) {
  return std::vector<double>(M.data(), M.data() + M.size());
}

} // namespace

void CertificateBuilder::onRunBegin(const RunInfo &Info,
                                    const zono::Zonotope &Input) {
  Data.Kind = Info.Kind;
  Data.TrueClass = Info.TrueClass;
  Data.ModelLayers = Info.Layers;
  Data.ModelEmbed = Info.Embed;
  Data.ModelHeads = Info.Heads;
  Data.Checkpoints.clear();
  Data.Margin = CertMargin();
  Matrix Lo, Hi;
  Input.bounds(Lo, Hi);
  Data.InputRows = Input.rows();
  Data.InputCols = Input.cols();
  Data.InputLo = flatCopy(Lo);
  Data.InputHi = flatCopy(Hi);
}

void CertificateBuilder::onCheckpoint(const zono::Zonotope &Z,
                                      const char *Site, int Layer, int Head) {
  CertCheckpoint C;
  C.Site = Site;
  C.Layer = Layer;
  C.Head = Head;
  C.Rows = Z.rows();
  C.Cols = Z.cols();
  C.PhiSyms = Z.numPhi();
  C.EpsSyms = Z.numEps();
  C.EpsBlocks = Z.epsBlockCount();
  Matrix A = Z.phiColumnDualNorms();
  Matrix B = Z.epsColumnDualNorms(1.0);
  C.Center = flatCopy(Z.center());
  C.PhiNorm = flatCopy(A);
  C.EpsNorm = flatCopy(B);
  size_t N = Z.numVars();
  C.Lo.resize(N);
  C.Hi.resize(N);
  // The exact association of radii()/bounds(): r = a + b, then c -/+ r.
  // The checker replays this expression with directed rounding, so the
  // recorded round-to-nearest values must come from this order and no
  // other.
  for (size_t V = 0; V < N; ++V) {
    double R = C.PhiNorm[V] + C.EpsNorm[V];
    C.Lo[V] = C.Center[V] - R;
    C.Hi[V] = C.Center[V] + R;
  }
  Data.Checkpoints.push_back(std::move(C));
}

void CertificateBuilder::onMargin(const zono::Zonotope &Margin,
                                  size_t TrueClass, double Lo, double Hi) {
  CertMargin &M = Data.Margin;
  M.Valid = true;
  M.TrueClass = TrueClass;
  M.Q = tensor::dualExponent(Margin.phiP());
  M.Center = Margin.center().at(0, 0);
  // Raw coefficient vectors in ascending symbol order; the checker
  // replays the dual norms from these with directed rounding.
  const Matrix &Phi = Margin.phiCoeffs();
  M.Alpha.resize(Phi.rows());
  for (size_t S = 0; S < Phi.rows(); ++S)
    M.Alpha[S] = Phi.at(S, 0);
  M.Beta.assign(Margin.numEps(), 0.0);
  for (const zono::EpsBlockView &V : Margin.epsBlockViews()) {
    switch (V.Kind) {
    case zono::EpsBlockKind::Dense:
      for (size_t I = 0; I < V.Syms; ++I)
        M.Beta[V.Start + I] = V.Dense->at(I, 0);
      break;
    case zono::EpsBlockKind::Diag:
      for (size_t I = 0; I < V.Syms; ++I)
        M.Beta[V.Start + I] = V.Entries[I].second;
      break;
    case zono::EpsBlockKind::Zero:
      break;
    }
  }
  // The producer norms the verdict consumed: the same kernels radii()
  // runs, so the values are bit-identical to the bounds() inputs.
  M.AlphaNorm = Margin.phiColumnDualNorms().at(0, 0);
  M.BetaNorm = Margin.epsColumnDualNorms(1.0).at(0, 0);
  M.Lo = Lo;
  M.Hi = Hi;
  M.Certified = Lo > 0.0;
}

std::string CertificateData::payloadJson() const {
  std::string Out = "{\"v\":1,\"query\":\"" + jsonEscape(Query) +
                    "\",\"kind\":\"" + jsonEscape(Kind) + "\",\"method\":\"" +
                    jsonEscape(Method) + "\",\"norm\":\"" + jsonEscape(Norm) +
                    "\",\"precision\":\"f64\",\"p\":" + jsonNumber(P) +
                    ",\"true_class\":" + std::to_string(TrueClass) +
                    ",\"model\":{\"layers\":" + std::to_string(ModelLayers) +
                    ",\"embed\":" + std::to_string(ModelEmbed) +
                    ",\"heads\":" + std::to_string(ModelHeads) + "}";
  Out += ",\"input\":{\"rows\":" + std::to_string(InputRows) +
         ",\"cols\":" + std::to_string(InputCols) + ",\"lo\":";
  appendNumberArray(Out, InputLo);
  Out += ",\"hi\":";
  appendNumberArray(Out, InputHi);
  Out += "},\"checkpoints\":[";
  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    const CertCheckpoint &C = Checkpoints[I];
    if (I)
      Out += ",";
    Out += "{\"site\":\"" + jsonEscape(C.Site) +
           "\",\"layer\":" + std::to_string(C.Layer) +
           ",\"head\":" + std::to_string(C.Head) +
           ",\"rows\":" + std::to_string(C.Rows) +
           ",\"cols\":" + std::to_string(C.Cols) +
           ",\"phi_syms\":" + std::to_string(C.PhiSyms) +
           ",\"eps_syms\":" + std::to_string(C.EpsSyms) +
           ",\"eps_blocks\":" + std::to_string(C.EpsBlocks) +
           ",\"center\":";
    appendNumberArray(Out, C.Center);
    Out += ",\"phi_norm\":";
    appendNumberArray(Out, C.PhiNorm);
    Out += ",\"eps_norm\":";
    appendNumberArray(Out, C.EpsNorm);
    Out += ",\"lo\":";
    appendNumberArray(Out, C.Lo);
    Out += ",\"hi\":";
    appendNumberArray(Out, C.Hi);
    Out += "}";
  }
  Out += "],\"margin\":{\"true_class\":" + std::to_string(Margin.TrueClass) +
         ",\"q\":" + jsonNumber(Margin.Q) +
         ",\"center\":" + jsonNumber(Margin.Center) + ",\"alpha\":";
  appendNumberArray(Out, Margin.Alpha);
  Out += ",\"beta\":";
  appendNumberArray(Out, Margin.Beta);
  Out += ",\"alpha_norm\":" + jsonNumber(Margin.AlphaNorm) +
         ",\"beta_norm\":" + jsonNumber(Margin.BetaNorm) +
         ",\"lo\":" + jsonNumber(Margin.Lo) +
         ",\"hi\":" + jsonNumber(Margin.Hi) +
         ",\"certified\":" + (Margin.Certified ? "true" : "false") + "}}";
  return Out;
}

std::string CertificateData::toJson() const {
  // Payload last, compact, with nothing after it but the closing brace:
  // the checker CRCs the raw byte range starting at the payload's '{',
  // so the envelope prefix must contain no other "payload" key and the
  // payload must extend to exactly the envelope's final '}'.
  std::string Payload = payloadJson();
  uint32_t Crc = support::crc32(Payload.data(), Payload.size());
  std::string Out = "{\"deept_cert\":1,\"isa\":\"";
  Out += tensor::isaName(tensor::currentIsa());
  Out += "\",\"threads\":";
  Out += std::to_string(support::ThreadPool::global().threadCount());
  Out += ",\"crc32\":";
  Out += std::to_string(Crc);
  Out += ",\"payload\":";
  Out += Payload;
  Out += "}";
  return Out;
}
