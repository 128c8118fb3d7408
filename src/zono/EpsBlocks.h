//===- zono/EpsBlocks.h - Typed eps coefficient blocks ---------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed storage blocks for the eps coefficient matrix of a Multi-norm
/// Zonotope (see DESIGN.md "Coefficient storage"). The eps space is
/// append-only between noise reductions, and almost every appended block is
/// structurally sparse: fresh symbols from the elementwise / softmax /
/// dot-product transformers touch exactly one variable each (a diagonal
/// block), and space alignment appends all-zero rows. Storing those blocks
/// in their natural shape lets the affine transformers and the dual-norm
/// accumulations skip the zeros instead of multiplying them.
///
/// Block taxonomy:
///   - Dense: a Syms x NumVars coefficient matrix (the classical layout).
///   - Diag:  one (Var, Coef) entry per symbol; entry I is the only
///            potential nonzero of symbol Row0+I. Dropped symbols keep a
///            placeholder entry with Coef == 0.0.
///   - Zero:  Syms all-zero rows (eps-space padding).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_ZONO_EPSBLOCKS_H
#define DEEPT_ZONO_EPSBLOCKS_H

#include "tensor/Matrix.h"

#include <deque>
#include <utility>
#include <vector>

namespace deept {
namespace zono {

using tensor::Matrix;

enum class EpsBlockKind { Dense, Diag, Zero };

/// One stored block of eps coefficient rows.
struct EpsBlock {
  EpsBlockKind Kind = EpsBlockKind::Zero;
  /// Dense payload (Kind == Dense): Syms x NumVars rows.
  Matrix D;
  /// Diagonal payload (Kind == Diag): exactly one entry per symbol.
  std::vector<std::pair<size_t, double>> Entries;
  /// Symbol count (Kind == Zero).
  size_t ZeroSyms = 0;

  size_t syms() const {
    switch (Kind) {
    case EpsBlockKind::Dense:
      return D.rows();
    case EpsBlockKind::Diag:
      return Entries.size();
    case EpsBlockKind::Zero:
      return ZeroSyms;
    }
    return 0;
  }
};

/// A read-only view of one block in a zonotope's eps storage; symbol
/// indices [Start, Start + Syms) live in this block. For Dense blocks
/// symbol S is row S - Start of *Dense; for Diag blocks it is entry
/// Entries[S - Start].
struct EpsBlockView {
  EpsBlockKind Kind = EpsBlockKind::Zero;
  size_t Start = 0;
  size_t Syms = 0;
  const Matrix *Dense = nullptr;
  const std::pair<size_t, double> *Entries = nullptr;
};

/// A per-symbol handle flattened out of a block-view list; convenient for
/// code that walks two eps spaces in lockstep (add, concatCols, dotRows).
struct EpsSymRef {
  EpsBlockKind Kind = EpsBlockKind::Zero;
  /// Kind == Dense: the symbol's coefficient row.
  const double *Row = nullptr;
  /// Kind == Diag: the symbol's single (Var, Coef) entry.
  std::pair<size_t, double> Entry{0, 0.0};
};

/// Flattens \p Views into one EpsSymRef per symbol. A Diag entry with a
/// zero coefficient degrades to Kind == Zero so callers get maximal
/// skipping for free. \p NumEps symbols are produced; views past the list
/// (aligned-away symbols) are treated as Zero.
inline std::vector<EpsSymRef>
flattenEpsViews(const std::vector<EpsBlockView> &Views, size_t NumEps) {
  std::vector<EpsSymRef> Refs(NumEps);
  for (const EpsBlockView &V : Views) {
    for (size_t I = 0; I < V.Syms; ++I) {
      EpsSymRef &R = Refs[V.Start + I];
      switch (V.Kind) {
      case EpsBlockKind::Dense:
        R.Kind = EpsBlockKind::Dense;
        R.Row = V.Dense->rowPtr(I);
        break;
      case EpsBlockKind::Diag:
        R.Entry = V.Entries[I];
        R.Kind = R.Entry.second == 0.0 ? EpsBlockKind::Zero
                                       : EpsBlockKind::Diag;
        break;
      case EpsBlockKind::Zero:
        break;
      }
    }
  }
  return Refs;
}

/// Builds a block list in ascending symbol order, merging adjacent zero
/// and diagonal appends so the list stays short.
class EpsBlockListBuilder {
public:
  void zero(size_t Syms) {
    if (Syms == 0)
      return;
    flushExcept(EpsBlockKind::Zero);
    PendingZero += Syms;
  }

  void diag(size_t Var, double Coef) {
    flushExcept(EpsBlockKind::Diag);
    PendingDiag.emplace_back(Var, Coef);
  }

  /// Appends a whole dense block (one row per symbol), adopting the
  /// matrix as a block of its own (no copy). Adjacent dense blocks produced this way
  /// stay separate, which every reader handles.
  void dense(Matrix Rows) {
    if (Rows.rows() == 0)
      return;
    flushAll();
    EpsBlock B;
    B.Kind = EpsBlockKind::Dense;
    B.D = std::move(Rows);
    Blocks.push_back(std::move(B));
  }

  std::deque<EpsBlock> finish() {
    flushAll();
    return std::move(Blocks);
  }

private:
  /// At most one pending kind is nonempty at a time (every append flushes
  /// the others), so two complementary flushes drain everything.
  void flushAll() {
    flushExcept(EpsBlockKind::Zero);
    flushExcept(EpsBlockKind::Diag);
  }

  void flushExcept(EpsBlockKind Keep) {
    if (Keep != EpsBlockKind::Zero && PendingZero > 0) {
      EpsBlock B;
      B.Kind = EpsBlockKind::Zero;
      B.ZeroSyms = PendingZero;
      Blocks.push_back(std::move(B));
      PendingZero = 0;
    }
    if (Keep != EpsBlockKind::Diag && !PendingDiag.empty()) {
      EpsBlock B;
      B.Kind = EpsBlockKind::Diag;
      B.Entries = std::move(PendingDiag);
      Blocks.push_back(std::move(B));
      PendingDiag.clear();
    }
  }

  std::deque<EpsBlock> Blocks;
  size_t PendingZero = 0;
  std::vector<std::pair<size_t, double>> PendingDiag;
};

} // namespace zono
} // namespace deept

#endif // DEEPT_ZONO_EPSBLOCKS_H
