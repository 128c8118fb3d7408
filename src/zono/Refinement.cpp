//===- zono/Refinement.cpp ------------------------------------*- C++ -*-===//

#include "zono/Refinement.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace deept;
using namespace deept::zono;
using zono::detail::Breakpoint;
using zono::detail::ConstraintForm;
using tensor::dualExponent;

namespace {

/// Fills \p D in place (reusing its vectors' capacity -- this runs twice
/// per refined row, so the allocations are worth hoisting).
void buildConstraint(const Zonotope &P, size_t Row, ConstraintForm &D) {
  size_t C = P.cols();
  D.C = 1.0;
  for (size_t J = 0; J < C; ++J)
    D.C -= P.center().at(Row, J);
  D.Alpha.assign(P.numPhi(), 0.0);
  for (size_t S = 0; S < P.numPhi(); ++S) {
    const double *CoefRow = P.phiCoeffs().rowPtr(S);
    for (size_t J = 0; J < C; ++J)
      D.Alpha[S] -= CoefRow[Row * C + J];
  }
  D.Beta.assign(P.numEps(), 0.0);
  for (size_t S = 0; S < P.numEps(); ++S) {
    const double *CoefRow = P.epsCoeffs().rowPtr(S);
    for (size_t J = 0; J < C; ++J)
      D.Beta[S] -= CoefRow[Row * C + J];
  }
}

/// Adds T * D to variable \p Var of \p P (an exact rewrite on the
/// constraint set, since D = 0 there).
void addConstraintMultiple(Zonotope &P, size_t Var, double T,
                           const ConstraintForm &D) {
  if (T == 0.0)
    return;
  P.center().flat(Var) += T * D.C;
  for (size_t S = 0; S < P.numPhi(); ++S)
    P.phiCoeffs().at(S, Var) += T * D.Alpha[S];
  for (size_t S = 0; S < P.numEps(); ++S)
    P.epsCoeffs().at(S, Var) += T * D.Beta[S];
}

double objectiveAt(const std::vector<Breakpoint> &Points, double T) {
  double Acc = 0.0;
  for (const Breakpoint &B : Points)
    Acc += B.Weight * std::fabs(T - B.Pos);
  return Acc;
}

/// Finds the smallest breakpoint position W such that the cumulative
/// weight of positions <= W reaches \p Target, by deterministic
/// quickselect (median-of-3 pivot, three-way partition by position).
/// Expected O(n); permutes [Lo, Hi).
double weightedMedianPos(std::vector<Breakpoint> &Points, size_t Lo,
                         size_t Hi, double Target, double Below) {
  while (Hi - Lo > 16) {
    double A = Points[Lo].Pos;
    double B = Points[Lo + (Hi - Lo) / 2].Pos;
    double C = Points[Hi - 1].Pos;
    double Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));
    // Dutch-flag partition: [Lo, Lt) < Pivot, [Lt, I) == Pivot,
    // (Gt, Hi) > Pivot.
    size_t Lt = Lo, I = Lo, Gt = Hi;
    double WLess = 0.0, WEq = 0.0;
    while (I < Gt) {
      double P = Points[I].Pos;
      if (P < Pivot) {
        WLess += Points[I].Weight;
        std::swap(Points[Lt++], Points[I++]);
      } else if (P > Pivot) {
        std::swap(Points[I], Points[--Gt]);
      } else {
        WEq += Points[I++].Weight;
      }
    }
    if (Below + WLess >= Target) {
      Hi = Lt;
    } else if (Below + WLess + WEq >= Target) {
      return Pivot;
    } else {
      Below += WLess + WEq;
      Lo = Gt;
    }
  }
  std::sort(Points.begin() + Lo, Points.begin() + Hi,
            [](const Breakpoint &A, const Breakpoint &B) {
              return A.Pos < B.Pos;
            });
  double Cum = Below;
  for (size_t I = Lo; I < Hi; ++I) {
    Cum += Points[I].Weight;
    if (Cum >= Target)
      return Points[I].Pos;
  }
  return Points[Hi - 1].Pos;
}

} // namespace

/// Selects the mass-minimising multiple for a breakpoint set: the
/// weighted median of the positions (the smallest position where the
/// ascending cumulative weight reaches half the total -- the same
/// breakpoint the previous full-sort scan chose), found by selection
/// instead of an O(n log n) sort. Candidates that would eliminate an lp
/// (phi) noise symbol are skipped by moving to the best of the nearest
/// non-phi neighbours on either side and t = 0.
double deept::zono::detail::selectBreakpoint(std::vector<Breakpoint> &Points) {
  if (Points.empty())
    return 0.0;
  double Total = 0.0;
  for (const Breakpoint &B : Points)
    Total += B.Weight;
  double W = weightedMedianPos(Points, 0, Points.size(), 0.5 * Total, 0.0);
  // The median position is a valid answer unless every breakpoint there
  // came from a phi symbol (eliminating one would change the lp space).
  bool PhiOnlyAtW = true;
  bool HaveLower = false, HaveUpper = false;
  double Lower = 0.0, Upper = 0.0;
  for (const Breakpoint &B : Points) {
    if (B.FromPhi) {
      if (B.Pos == W)
        continue;
    } else if (B.Pos == W) {
      PhiOnlyAtW = false;
      break;
    }
    if (B.FromPhi)
      continue;
    if (B.Pos < W) {
      if (!HaveLower || B.Pos > Lower)
        Lower = B.Pos;
      HaveLower = true;
    } else {
      if (!HaveUpper || B.Pos < Upper)
        Upper = B.Pos;
      HaveUpper = true;
    }
  }
  if (!PhiOnlyAtW)
    return W;
  // Skip phi-eliminating candidates: inspect the nearest non-phi
  // breakpoints in either direction and keep the better one.
  double Best = 0.0;
  double BestVal = objectiveAt(Points, 0.0);
  if (HaveLower) {
    double Val = objectiveAt(Points, Lower);
    if (Val < BestVal) {
      BestVal = Val;
      Best = Lower;
    }
  }
  if (HaveUpper) {
    double Val = objectiveAt(Points, Upper);
    if (Val < BestVal) {
      BestVal = Val;
      Best = Upper;
    }
  }
  return Best;
}

namespace {

/// Minimises sum_s |coef_s + t * d_s| over t (Appendix A.1). Terms with
/// d_s = 0 are constant; the rest contribute weight |d_s| at breakpoint
/// -coef_s / d_s, so the optimum is a weighted median attained at a
/// breakpoint, found by selection.
double minimiseCoefficientMass(const Zonotope &P, size_t Var,
                               const ConstraintForm &D,
                               const RefinementOptions &Opts,
                               std::vector<Breakpoint> &Points) {
  Points.clear();
  Points.reserve(D.Alpha.size() + D.Beta.size());
  for (size_t S = 0; S < D.Alpha.size(); ++S) {
    if (std::fabs(D.Alpha[S]) <= Opts.Tol)
      continue;
    Points.push_back({-P.phiCoeffs().at(S, Var) / D.Alpha[S],
                      std::fabs(D.Alpha[S]), /*FromPhi=*/true});
  }
  for (size_t S = 0; S < D.Beta.size(); ++S) {
    if (std::fabs(D.Beta[S]) <= Opts.Tol)
      continue;
    Points.push_back({-P.epsCoeffs().at(S, Var) / D.Beta[S],
                      std::fabs(D.Beta[S]), /*FromPhi=*/false});
  }
  return detail::selectBreakpoint(Points);
}

} // namespace

RefinementStats
deept::zono::refineSoftmaxSum(Zonotope &P,
                              const std::vector<Zonotope *> &CoLive,
                              const RefinementOptions &Opts,
                              RefinementScratch *Scratch) {
  DEEPT_TRACE_SPAN("zono.softmax_refine");
  RefinementStats Stats;
  size_t C = P.cols();
  if (C < 2)
    return Stats;
  double Q = dualExponent(P.phiP());

  // Collected symbol tightenings Sym -> [Lo, Hi], applied after all rows
  // are processed. Each range is derived against the symbol's original
  // [-1, 1] meaning, so ranges from different rows for the same symbol are
  // intersected and the symbol is rewritten exactly once.
  std::vector<std::pair<double, double>> Ranges(P.numEps(),
                                                {-1.0, 1.0});
  std::vector<bool> Tightened(P.numEps(), false);

  // Scratch reused across every row and variable (and, when the caller
  // passes one in, across refine calls): the refinement loop is
  // allocation-heavy enough that per-call vectors show up in profiles.
  RefinementScratch Local;
  RefinementScratch &S = Scratch ? *Scratch : Local;
  ConstraintForm &D = S.D, &DR = S.DR;
  std::vector<Breakpoint> &Points = S.Points;
  Matrix &AlphaScratch = S.AlphaScratch;

  for (size_t Row = 0; Row < P.rows(); ++Row) {
    buildConstraint(P, Row, D);

    // Steps 1-2: refine every variable of the row with its own
    // mass-minimising multiple of the constraint residual. The paper
    // minimises only for y_1 (step 1) and pivot-substitutes an eps symbol
    // for the others (step 2); since y_j + t * D equals y_j on the
    // constraint set for *any* t, minimising per variable is equally sound
    // and never increases a variable's coefficient mass (t = 0 is always a
    // candidate the optimum dominates).
    for (size_t J = 0; J < C; ++J) {
      size_t Var = Row * C + J;
      double TStar = minimiseCoefficientMass(P, Var, D, Opts, Points);
      if (std::fabs(TStar) <= Opts.MaxFactor)
        addConstraintMultiple(P, Var, TStar, D);
    }
    Stats.RowsRefined++;

    // Step 3: solve the refined constraint for each eps symbol to tighten
    // its range.
    buildConstraint(P, Row, DR);
    double AlphaNorm = 0.0;
    if (!DR.Alpha.empty()) {
      if (AlphaScratch.cols() != DR.Alpha.size())
        AlphaScratch = Matrix::uninit(1, DR.Alpha.size());
      std::copy(DR.Alpha.begin(), DR.Alpha.end(), AlphaScratch.data());
      AlphaNorm = AlphaScratch.lpNorm(Q);
    }
    double BetaAbsSum = 0.0;
    for (double B : DR.Beta)
      BetaAbsSum += std::fabs(B);
    for (size_t M = 0; M < DR.Beta.size(); ++M) {
      double BM = DR.Beta[M];
      if (std::fabs(BM) <= Opts.Tol)
        continue;
      double Rest = AlphaNorm + (BetaAbsSum - std::fabs(BM));
      // Constraint: DR.C + alpha.phi + sum beta_j eps_j = 0, so
      // eps_m = (-DR.C - alpha.phi - sum_{j != m} beta_j eps_j) / BM.
      double Mid = -DR.C / BM;
      double Rad = Rest / std::fabs(BM);
      if (!std::isfinite(Mid) || !std::isfinite(Rad))
        continue; // overflowed abstraction; no sound tightening available
      double Lo = std::max(Mid - Rad, -1.0);
      double Hi = std::min(Mid + Rad, 1.0);
      if (Lo > Hi)
        continue; // numerically infeasible; leave the symbol alone
      if (Hi - Lo >= 2.0 - 1e-12)
        continue; // no tightening
      if (M >= Ranges.size())
        continue; // symbol introduced mid-refinement; skip
      Ranges[M].first = std::max(Ranges[M].first, Lo);
      Ranges[M].second = std::min(Ranges[M].second, Hi);
      if (Ranges[M].first > Ranges[M].second) {
        // Intersection emptied by floating point slack; collapse to the
        // midpoint rather than producing an inverted range.
        double Mid2 = 0.5 * (Ranges[M].first + Ranges[M].second);
        Ranges[M] = {Mid2, Mid2};
      }
      Tightened[M] = true;
    }
  }

  static support::Counter &RowsRefined =
      support::Metrics::global().counter("zono.refine.rows");
  static support::Counter &Tightenings =
      support::Metrics::global().counter("zono.refine.symbols_tightened");
  static support::Histogram &Shrinkage =
      support::Metrics::global().histogram("zono.refine.shrinkage");
  RowsRefined.add(static_cast<double>(Stats.RowsRefined));
  for (size_t Sym = 0; Sym < Tightened.size(); ++Sym) {
    if (!Tightened[Sym])
      continue;
    double Mid = 0.5 * (Ranges[Sym].first + Ranges[Sym].second);
    double Rad = 0.5 * (Ranges[Sym].second - Ranges[Sym].first);
    // Fraction of the symbol's original [-1, 1] range eliminated (1 =
    // pinned to a point, 0 = untouched).
    Shrinkage.observe(1.0 - Rad);
    P.rewriteEpsSymbol(Sym, Mid, Rad);
    for (Zonotope *Other : CoLive)
      Other->rewriteEpsSymbol(Sym, Mid, Rad);
    Stats.SymbolsTightened++;
  }
  Tightenings.add(static_cast<double>(Stats.SymbolsTightened));
  return Stats;
}
