//===- verify/Profile.cpp -------------------------------------*- C++ -*-===//

#include "verify/Profile.h"

#include "support/Json.h"
#include "support/Metrics.h"
#include "zono/Zonotope.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace deept;
using namespace deept::verify;
using support::jsonEscape;
using support::jsonNumber;
using tensor::Matrix;

void PrecisionProfile::resetMeasurements() {
  Checkpoints.clear();
  Attribution.clear();
  MarginLo = MarginHi = MarginWidth = 0.0;
  Falsified = false;
  TotalMs = PendingMs = 0.0;
}

std::string PrecisionProfile::toJsonLine() const {
  std::string Out = "{\"query\":\"" + jsonEscape(Query) + "\",\"method\":\"" +
                    jsonEscape(Method) + "\",\"norm\":\"" + jsonEscape(Norm) +
                    "\",\"eps\":" + jsonNumber(Eps) +
                    ",\"margin_lo\":" + jsonNumber(MarginLo) +
                    ",\"margin_hi\":" + jsonNumber(MarginHi) +
                    ",\"margin_width\":" + jsonNumber(MarginWidth) +
                    ",\"falsified\":" + (Falsified ? "true" : "false") +
                    ",\"total_ms\":" + jsonNumber(TotalMs) +
                    ",\"checkpoints\":[";
  bool First = true;
  for (const CheckpointProfile &C : Checkpoints) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"site\":\"" + jsonEscape(C.Site) +
           "\",\"layer\":" + std::to_string(C.Layer) +
           ",\"head\":" + std::to_string(C.Head) +
           ",\"mean_width\":" + jsonNumber(C.MeanWidth) +
           ",\"max_width\":" + jsonNumber(C.MaxWidth) +
           ",\"growth\":" + jsonNumber(C.Growth) +
           ",\"eps_syms\":" + std::to_string(C.EpsSyms) +
           ",\"eps_blocks\":" + std::to_string(C.EpsBlocks) +
           ",\"structured_frac\":" + jsonNumber(C.StructuredFrac) +
           ",\"coeff_bytes\":" + std::to_string(C.CoeffBytes) +
           ",\"since_ms\":" + jsonNumber(C.SinceMs) + "}";
  }
  Out += "],\"attribution\":[";
  First = true;
  for (const GroupContribution &G : Attribution) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"group\":\"" + jsonEscape(G.Group) +
           "\",\"symbols\":" + std::to_string(G.Symbols) +
           ",\"width\":" + jsonNumber(G.Width) + "}";
  }
  Out += "]}";
  return Out;
}

void PrecisionProfile::onRunBegin(const RunInfo &, const zono::Zonotope &) {
  resetMeasurements();
  Session.emplace();
}

void PrecisionProfile::onRunEnd() { Session.reset(); }

void PrecisionProfile::onStage(const char *, int, int, double,
                               double SelfMs) {
  PendingMs += SelfMs;
  TotalMs += SelfMs;
}

void PrecisionProfile::onCheckpoint(const zono::Zonotope &Z, const char *Site,
                                    int Layer, int Head) {
  CheckpointProfile C;
  C.Site = Site;
  C.Layer = Layer;
  C.Head = Head;
  // Width = 2 * noise radius per variable (Theorem 1).
  Matrix R = Z.radii();
  double Sum = 0.0, Max = 0.0;
  for (size_t I = 0; I < R.size(); ++I) {
    double W = 2.0 * R.flat(I);
    Sum += W;
    Max = std::max(Max, W);
  }
  C.MeanWidth = R.size() ? Sum / static_cast<double>(R.size()) : 0.0;
  C.MaxWidth = Max;
  if (!Checkpoints.empty() && Checkpoints.back().MeanWidth > 0.0)
    C.Growth = C.MeanWidth / Checkpoints.back().MeanWidth;
  C.EpsSyms = Z.numEps();
  C.EpsBlocks = Z.epsBlockCount();
  C.StructuredFrac = Z.epsStructuredFraction();
  C.CoeffBytes = Z.coeffBytes();
  C.SinceMs = PendingMs;
  PendingMs = 0.0;
  Checkpoints.push_back(std::move(C));
}

void PrecisionProfile::onMargin(const zono::Zonotope &Margin, size_t,
                                double Lo, double Hi) {
  assert(Session && "onMargin outside a run");
  const zono::SymbolProvenance &Prov = Session->provenance();
  MarginLo = Lo;
  MarginHi = Hi;
  MarginWidth = Hi - Lo;
  Falsified = !(Lo > 0.0);
  Attribution.clear();

  // Phi (input embedding) contribution: 2*||alpha||_q over the margin's
  // single variable, with q the dual exponent of the phi norm. Mirrors
  // the columnDualNorms kernel, ascending symbol order.
  {
    double Q = tensor::dualExponent(Margin.phiP());
    const Matrix &Phi = Margin.phiCoeffs();
    double Acc = 0.0;
    if (Q == 2.0) {
      for (size_t S = 0; S < Phi.rows(); ++S)
        Acc += Phi.at(S, 0) * Phi.at(S, 0);
      Acc = std::sqrt(Acc);
    } else if (Q == Matrix::InfNorm) {
      for (size_t S = 0; S < Phi.rows(); ++S)
        Acc = std::max(Acc, std::fabs(Phi.at(S, 0)));
    } else {
      for (size_t S = 0; S < Phi.rows(); ++S)
        Acc += std::fabs(Phi.at(S, 0));
    }
    GroupContribution G;
    G.Group = "input.phi";
    G.Symbols = Phi.rows();
    G.Width = 2.0 * Acc;
    Attribution.push_back(std::move(G));
  }

  // Eps contributions: the l1 norm splits additively over the provenance
  // partition, so walking the blocks in ascending symbol order and
  // charging each |beta_j| to its group is an exact decomposition of
  // 2*||beta||_1.
  std::map<std::string, GroupContribution> Groups;
  auto Charge = [&](size_t Sym, double Coef) {
    const std::string &Name = Prov.groupOf(Sym);
    GroupContribution &G = Groups[Name];
    G.Group = Name;
    G.Symbols++;
    G.Width += 2.0 * std::fabs(Coef);
  };
  for (const zono::EpsBlockView &V : Margin.epsBlockViews()) {
    switch (V.Kind) {
    case zono::EpsBlockKind::Dense:
      for (size_t I = 0; I < V.Syms; ++I)
        Charge(V.Start + I, V.Dense->at(I, 0));
      break;
    case zono::EpsBlockKind::Diag:
      for (size_t I = 0; I < V.Syms; ++I)
        Charge(V.Start + I, V.Entries[I].second);
      break;
    case zono::EpsBlockKind::Zero:
      break;
    }
  }
  for (auto &[Name, G] : Groups)
    Attribution.push_back(std::move(G));

  support::Metrics &MR = support::Metrics::global();
  MR.counter("profile.queries").add(1);
  if (Falsified)
    MR.counter("profile.falsified").add(1);
  MR.histogram("profile.margin_width").observe(MarginWidth);
  static support::Histogram &Growth =
      MR.histogram("profile.checkpoint_growth");
  for (const CheckpointProfile &C : Checkpoints)
    if (C.Growth > 0.0)
      Growth.observe(C.Growth);
}
