//===- zono/Provenance.h - Noise-symbol origin tracking --------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attribution of eps noise symbols to the transformer stage that created
/// them. Every fresh symbol enters the zonotope through
/// Zonotope::appendFreshEps, so a single hook there suffices: while a
/// ProvenanceSession is installed on the calling thread, each appended
/// symbol index is tagged with the session's current group name
/// ("layer2.softmax", "layer0.attention.scores", "pooler", ...). Each
/// verifier stage that creates symbols scopes its group through
/// pushGroup/restoreGroup (verify::Stage in verify/Observer.h); symbols
/// created outside any group -- notably the input box -- default to the
/// "input" group.
///
/// Symbol reduction (Section 5.1 of the paper) re-indexes the eps space:
/// reduceEpsSymbols reports which old indices survive via noteReduction
/// before installing the compacted coefficients, and the per-variable fold
/// symbols it appends afterwards are tagged like any other fresh symbols
/// (the verifier wraps the call in a "layerN.noise_reduction" group).
///
/// The map is last-write-wins per symbol index: attention heads build
/// their per-head zonotopes against overlapping symbol index ranges before
/// alignment, so a given index can be tagged more than once. Attribution
/// stays exact regardless -- each final symbol belongs to exactly one
/// group, so the per-group dual-norm contributions always sum to the
/// margin width; overlapping tags only coarsen *which* stage a shared
/// index is charged to.
///
/// All hooks are no-ops (one thread_local load and branch) when no session
/// is active, keeping the default verification path at its usual cost.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_ZONO_PROVENANCE_H
#define DEEPT_ZONO_PROVENANCE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace deept {
namespace zono {

/// Per-session symbol-index -> group-name map. Not thread-safe by itself;
/// it relies on the repo's convention that fresh symbols are appended on
/// the orchestrating thread (parallel transformer bodies collect entries
/// and call appendFreshEps serially).
class SymbolProvenance {
public:
  SymbolProvenance();

  /// The session installed on this thread, or nullptr (hooks must check).
  static SymbolProvenance *active();

  /// Interns \p Name and makes it the group for subsequently appended
  /// symbols. Returns the previous group id (for RAII restore).
  uint32_t pushGroup(const std::string &Name);
  void restoreGroup(uint32_t Id) { CurGroup = Id; }
  uint32_t currentGroup() const { return CurGroup; }

  /// Tags symbols [First, First+Count) with the current group. Indices
  /// between the previous high-water mark and First (alignment padding)
  /// default to "input".
  void noteFresh(size_t First, size_t Count);

  /// Re-indexes the map after symbol reduction: \p KeptOld lists the
  /// surviving old indices in ascending order; old index KeptOld[i]
  /// becomes new index i and everything else is dropped.
  void noteReduction(const std::vector<size_t> &KeptOld);

  /// Group name of \p Sym ("input" when the index was never tagged).
  const std::string &groupOf(size_t Sym) const;

  size_t numTagged() const { return Tags.size(); }
  const std::vector<std::string> &groupNames() const { return Names; }

private:
  friend class ProvenanceSession;
  static thread_local SymbolProvenance *Active;

  std::vector<std::string> Names;          // group id -> name; id 0 = "input"
  std::map<std::string, uint32_t> NameIds; // interning map
  std::vector<uint32_t> Tags;              // symbol index -> group id
  uint32_t CurGroup = 0;
};

/// Installs a SymbolProvenance on the current thread for its scope.
class ProvenanceSession {
public:
  ProvenanceSession()
      : Prev(SymbolProvenance::Active) {
    SymbolProvenance::Active = &P;
  }
  ~ProvenanceSession() { SymbolProvenance::Active = Prev; }
  ProvenanceSession(const ProvenanceSession &) = delete;
  ProvenanceSession &operator=(const ProvenanceSession &) = delete;

  SymbolProvenance &provenance() { return P; }

private:
  SymbolProvenance P;
  SymbolProvenance *Prev;
};

} // namespace zono
} // namespace deept

#endif // DEEPT_ZONO_PROVENANCE_H
