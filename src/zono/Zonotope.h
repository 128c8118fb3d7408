//===- zono/Zonotope.h - The Multi-norm Zonotope domain --------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Multi-norm Zonotope abstract domain of "Fast and Precise
/// Certification of Transformers" (PLDI 2021), Section 4.
///
/// A Multi-norm Zonotope abstracts a tensor of variables x (viewed with a
/// logical Rows x Cols shape) as
///
///   x = c + A^T phi + B^T eps,   ||phi||_p <= 1,   eps_j in [-1, 1],
///
/// where the phi symbols model an lp-norm bound input perturbation
/// (p in {1, 2}) and the eps symbols are classical (l-infinity) Zonotope
/// noise symbols. Coefficients are stored symbol-major: Phi is
/// (#phi x #vars) and Eps is (#eps x #vars), so each coefficient row is the
/// flattened Rows x Cols coefficient tensor of one noise symbol.
///
/// Noise symbols are shared between zonotopes derived from the same input;
/// all binary operations align the eps spaces by zero-padding the shorter
/// one (symbols are allocated append-only between noise reductions).
///
/// Eps storage is block structured (EpsBlocks.h): a distinguished leading
/// dense block plus an append-only tail of typed blocks (Dense / Diag /
/// Zero). The affine transformers, bounds(), and the dual-norm kernels
/// consume the blocks directly, skipping structural zeros; epsCoeffs()
/// densifies on demand for the transformers that genuinely mix symbols
/// (mapLinear, the Eq. 6 Precise cascade, noise reduction, refinement).
/// Densification mutates the (logically const) cached storage, so it is
/// NOT safe inside a parallel region: hoist `const Matrix &E =
/// Z.epsCoeffs();` before any parallelFor that needs the dense view.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_ZONO_ZONOTOPE_H
#define DEEPT_ZONO_ZONOTOPE_H

#include "tensor/Matrix.h"
#include "zono/EpsBlocks.h"

#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace deept {
namespace support {
class Rng;
} // namespace support

namespace zono {

using tensor::Matrix;

/// A Multi-norm Zonotope over Rows x Cols variables.
class Zonotope {
public:
  Zonotope() = default;

  /// An abstraction of the exact constant tensor \p Center (no noise).
  /// \p PhiP fixes the norm of phi symbols added later (Matrix::InfNorm
  /// when the zonotope is classical).
  static Zonotope constant(const Matrix &Center, double PhiP);

  /// The lp ball of radius \p Radius around row \p Row of \p Center
  /// (threat model T1: one perturbed word embedding). For p = infinity the
  /// ball is expressed with classical eps symbols; otherwise with phi
  /// symbols bound by ||phi||_p <= 1.
  static Zonotope lpBallOnRow(const Matrix &Center, size_t Row, double P,
                              double Radius);

  /// The lp ball of radius \p Radius around the whole tensor \p Center.
  static Zonotope lpBall(const Matrix &Center, double P, double Radius);

  /// The box [Lo, Hi] (threat model T2: synonym boxes). Dimensions with
  /// Lo == Hi get no noise symbol.
  static Zonotope box(const Matrix &Lo, const Matrix &Hi);

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  size_t numVars() const { return NumRows * NumCols; }
  size_t numPhi() const { return PhiC.rows(); }
  size_t numEps() const { return EpsDense.rows() + TailSyms; }
  double phiP() const { return PhiP; }

  const Matrix &center() const { return Center; }
  Matrix &center() { return Center; }
  const Matrix &phiCoeffs() const { return PhiC; }
  Matrix &phiCoeffs() { return PhiC; }

  /// The dense numEps() x numVars() eps coefficient matrix. Densifies the
  /// block tail on first access (counted in zono.densify_count); not safe
  /// to call for the first time inside a parallel region -- hoist the
  /// reference before dispatching workers.
  const Matrix &epsCoeffs() const {
    densifyEps();
    return EpsDense;
  }
  Matrix &epsCoeffs() {
    densifyEps();
    return EpsDense;
  }

  /// The eps storage as an ordered list of typed block views (the leading
  /// dense block first when non-empty). Views are invalidated by any
  /// mutation of the zonotope, including epsCoeffs().
  std::vector<EpsBlockView> epsBlockViews() const;

  /// Number of stored eps blocks (leading dense block included).
  size_t epsBlockCount() const {
    return (EpsDense.rows() > 0 ? 1 : 0) + EpsTail.size();
  }

  /// Fraction of eps symbols stored in Diag or Zero (structured) blocks;
  /// 0 when there are no eps symbols.
  double epsStructuredFraction() const;

  /// Per-variable q-norm over the eps symbol axis (1 x numVars), computed
  /// block-wise with zero skipping. Accumulation per variable runs in
  /// ascending symbol order, so the result is bit-identical to the dense
  /// kernel at any thread count. Q follows Matrix::InfNorm conventions.
  Matrix epsColumnDualNorms(double Q) const;

  /// Per-variable dual norm ||alpha_k||_q over the phi symbol axis
  /// (1 x numVars), with q the dual exponent of phiP(). This is exactly
  /// the phi half of radii() -- exported separately so the certificate
  /// producer (verify/Certificate) can record the two dual-norm inputs of
  /// Theorem 1 individually; the values are bit-identical to the ones
  /// radii()/bounds() consume.
  Matrix phiColumnDualNorms() const;

  /// Computes per-variable concrete bounds (Theorem 1): for variable k,
  ///   l_k = c_k - ||alpha_k||_q - ||beta_k||_1,
  ///   u_k = c_k + ||alpha_k||_q + ||beta_k||_1,
  /// with q the dual exponent of p. Outputs are Rows x Cols.
  void bounds(Matrix &Lo, Matrix &Hi) const;

  /// Per-variable noise radius ||alpha_k||_q + ||beta_k||_1 (Rows x Cols).
  Matrix radii() const;

  // --- Exact affine transformers (Theorem 2). ---

  /// this + O (shared noise symbols; eps spaces are aligned). The rvalue
  /// overload adds into this zonotope's storage instead of deep-copying
  /// the coefficient planes; O must not alias it.
  Zonotope add(const Zonotope &O) const &;
  Zonotope add(const Zonotope &O) &&;

  /// this - O.
  Zonotope sub(const Zonotope &O) const;

  /// this + constant tensor. The rvalue overload reuses this zonotope's
  /// storage instead of deep-copying the coefficient planes.
  Zonotope addConst(const Matrix &C) const &;
  Zonotope addConst(const Matrix &C) &&;

  /// this * scalar (rvalue overload scales in place).
  Zonotope scale(double S) const &;
  Zonotope scale(double S) &&;

  /// View (Rows x Cols) multiplied on the right by constant W (Cols x D).
  Zonotope matmulRightConst(const Matrix &W) const;

  /// Constant W (M x Rows) times the view.
  Zonotope matmulLeftConst(const Matrix &W) const;

  /// Per row i: y[i][j] = x[i][j] - mean_j x[i][j] (the paper's layer
  /// normalization without division by the standard deviation).
  Zonotope subRowMean() const;

  /// Fused subRowMean().scaleColumns(Gamma) -- the layer-norm affine core
  /// in one pass over the coefficient planes, bit-identical to the
  /// two-step composition.
  Zonotope subRowMeanScale(const Matrix &Gamma) const;

  /// Row means as a Rows x 1 zonotope.
  Zonotope rowMeans() const;

  /// y[i][j] = Gamma[j] * x[i][j] (Gamma is 1 x Cols).
  Zonotope scaleColumns(const Matrix &Gamma) const;

  /// y[i][j] = x[i][j] + Bias[j] (Bias is 1 x Cols). The rvalue overload
  /// shifts the center in place (the coefficients are untouched).
  Zonotope addRowBroadcast(const Matrix &Bias) const &;
  Zonotope addRowBroadcast(const Matrix &Bias) &&;

  /// Row \p R as a 1 x Cols zonotope.
  Zonotope selectRow(size_t R) const;

  /// Columns [C0, C1) of the view.
  Zonotope selectColRange(size_t C0, size_t C1) const;

  /// The transposed view (Cols x Rows); coefficients are permuted.
  Zonotope transposedView() const;

  /// Reshape of the view; element count preserved.
  Zonotope reshapedView(size_t Rows, size_t Cols) const;

  /// Broadcast of a Rows x 1 view to Rows x Cols: y[i][j] = x[i][0].
  Zonotope broadcastColTo(size_t Cols) const;

  /// The pairwise-difference expansion used by the stable softmax rewrite:
  /// maps a Rows x Cols view to a (Rows*Cols) x Cols view with
  /// y[(r, j)][j'] = x[r][j'] - x[r][j] (exact, Theorem 2).
  Zonotope pairwiseDiffExpand() const;

  /// Row sums of a (Rows*Cols) x InCols view folded back to Rows x Cols:
  /// y[r][j] = sum_{j'} x[(r, j)][j']. The inverse companion of
  /// pairwiseDiffExpand; preserves Diag blocks.
  Zonotope rowSumsTo(size_t Rows, size_t Cols) const;

  /// Per row i: y[i][j] = sum_j' x[i][j'] (row sums broadcast back to the
  /// row, used by the naive softmax composition).
  Zonotope rowSumBroadcast() const;

  /// Horizontal concatenation of zonotopes with equal row counts.
  static Zonotope concatCols(const std::vector<Zonotope> &Parts);

  /// Applies an arbitrary linear map \p Fn of the view to the center and
  /// to every coefficient row (exact, Theorem 2). Fn must map a Rows x
  /// Cols matrix to a NewRows x NewCols matrix and be linear. Densifies
  /// the eps storage (the map is opaque, so no structure survives).
  Zonotope
  mapLinearPublic(size_t NewRows, size_t NewCols,
                  const std::function<Matrix(const Matrix &)> &Fn) const {
    return mapLinear(NewRows, NewCols, Fn);
  }

  // --- Noise-symbol plumbing. ---

  /// Replaces both coefficient matrices wholesale (column counts must
  /// equal numVars()). Used by transformers that compute coefficients
  /// symbol by symbol.
  void installCoeffs(Matrix Phi, Matrix Eps);

  /// Replaces the phi matrix and installs block-structured eps storage.
  void installCoeffs(Matrix Phi, std::deque<EpsBlock> EpsBlocks);

  /// Pads the eps space with zero coefficient rows up to \p Count symbols.
  void padEpsTo(size_t Count);

  /// Pads the phi space with zero coefficient rows (used when combining
  /// with constants created after the input).
  void padPhiTo(size_t Count);

  /// Aligns the eps spaces of \p A and \p B by zero padding.
  static void alignEps(Zonotope &A, Zonotope &B);

  /// Aligns both phi and eps spaces by zero padding; if one operand has no
  /// phi symbols it adopts the other's norm.
  static void alignSpaces(Zonotope &A, Zonotope &B);

  /// One-sided alignSpaces: pads this zonotope's phi/eps spaces up to
  /// \p O's counts (adopting O's norm when this has no phi symbols).
  /// Callers that know \p O is already at least as wide use this to avoid
  /// copying the wider operand just to run a no-op pad on it.
  void padToMatch(const Zonotope &O);

  /// Appends a block of fresh eps symbols, one per entry; entry (Var, Coef)
  /// gives the coefficient of the new symbol on variable Var. Returns the
  /// index of the first new symbol.
  size_t
  appendFreshEps(const std::vector<std::pair<size_t, double>> &Entries);

  /// Scales variable v's center and all of its noise coefficients by
  /// Lambda[v] (Lambda has the view's shape). Used by the elementwise
  /// transformers, whose output is Lambda * x + Mu + Beta * eps_new.
  void scalePerVarInPlace(const Matrix &Lambda);

  /// Adds Mu (view shaped) to the center in place.
  void shiftCenterInPlace(const Matrix &Mu);

  /// Rewrites eps symbol \p Sym as Mid + Rad * eps_new in place (used after
  /// the softmax sum refinement tightens a symbol's range to
  /// [Mid - Rad, Mid + Rad]). The symbol slot is reused for eps_new.
  void rewriteEpsSymbol(size_t Sym, double Mid, double Rad);

  /// A concrete member of the concretization: noise symbols are sampled
  /// inside their domains. If \p OnBoundary is true the phi vector is
  /// scaled onto the unit lp sphere and eps values are +-1.
  Matrix sample(support::Rng &Rng, bool OnBoundary = false) const;

  /// Samples admissible noise values (||phi||_p <= 1, eps in [-1, 1])
  /// without evaluating; used by tests that track points through
  /// transformers.
  void sampleNoise(support::Rng &Rng, bool OnBoundary,
                   std::vector<double> &PhiVals,
                   std::vector<double> &EpsVals) const;

  /// Evaluates the zonotope at explicit noise values (sizes must match).
  Matrix evaluate(const std::vector<double> &PhiVals,
                  const std::vector<double> &EpsVals) const;

  /// Memory footprint of the coefficient storage in bytes: the phi matrix,
  /// the center, the leading dense eps block, and the actual payload of
  /// every tail block (entries for Diag, rows for Dense, headers for all).
  size_t coeffBytes() const;

  /// Cheap soundness check: the center and every coefficient must be
  /// finite (a NaN or infinity means the abstraction no longer bounds
  /// anything), coefficient matrices must have numVars() columns (or be
  /// empty), and the phi norm must be a valid exponent. Returns false and
  /// fills \p Why (optional) on the first violation. O(number of stored
  /// doubles) with early exit; both verifiers run it at every checkpoint
  /// site, after the observers (verify::checkpoint in verify/Observer.h),
  /// and turn a violation into an UnsoundAbstraction error. Never
  /// densifies.
  bool validate(std::string *Why = nullptr) const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  Matrix Center;                       // NumRows x NumCols
  double PhiP = Matrix::InfNorm;       // p of the phi symbols
  Matrix PhiC;                         // numPhi x numVars
  /// Leading dense eps block; epsCoeffs() folds the tail into it, so its
  /// identity (and reference stability) matches the old monolithic EpsC.
  mutable Matrix EpsDense;
  /// Typed tail blocks in symbol order (std::deque: stable references
  /// under push_back) and their cached total symbol count.
  mutable std::deque<EpsBlock> EpsTail;
  mutable size_t TailSyms = 0;

  /// Folds the tail into EpsDense (no-op when the tail is empty). Bumps
  /// zono.densify_count.
  void densifyEps() const;

  /// Replaces the eps storage with \p Blocks (a leading Dense block is
  /// promoted into EpsDense).
  void installEpsBlocks(std::deque<EpsBlock> Blocks);

  /// Applies a linear map of the flattened variables to center and every
  /// coefficient row: NewVars = Fn(OldVarsViewedRowsxCols). Densifies.
  Zonotope
  mapLinear(size_t NewRows, size_t NewCols,
            const std::function<Matrix(const Matrix &)> &Fn) const;

  /// Shared skeleton of the structure-preserving affine transformers:
  /// BlockFn maps any dense S x numVars coefficient block (and the center,
  /// viewed as 1 x numVars) to its S x NewVars image; DiagFn maps one Diag
  /// entry to the single output entry of the same symbol.
  template <typename BlockFnT, typename DiagFnT>
  Zonotope epsMapDiag(size_t NewRows, size_t NewCols, const BlockFnT &BlockFn,
                      const DiagFnT &DiagFn) const;

  /// Shared skeleton of the scattering affine transformers: like
  /// epsMapDiag, but a Diag entry expands to a sparse set of output
  /// variables, written by ScatterFn(Var, Coef, OutRow) into a
  /// zero-initialised row (Diag blocks become Dense blocks of the same
  /// symbol range, computed in O(nnz) instead of a GEMM).
  template <typename BlockFnT, typename ScatterFnT>
  Zonotope epsMapScatter(size_t NewRows, size_t NewCols,
                         const BlockFnT &BlockFn,
                         const ScatterFnT &ScatterFn) const;
};

} // namespace zono
} // namespace deept

#endif // DEEPT_ZONO_ZONOTOPE_H
