//===- verify/Profile.h - Per-query precision profiles ---------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-query half of the precision-observability subsystem: a
/// PrecisionProfile is a verifier observer (verify/Observer.h). Attached
/// to VerifierConfig::Observers, it records interval-width statistics,
/// eps-storage shape and stage time at every soundness checkpoint,
/// and decomposes the final margin width into per-layer/op noise-symbol
/// contributions using the zono::SymbolProvenance tags of the provenance
/// session it installs for the duration of each run.
///
/// The decomposition is exact by Theorem 1: the margin is a 1x1 zonotope
/// whose width is 2*(||alpha||_q + ||beta||_1), and the l1 norm over the
/// eps axis splits additively over any partition of the symbols. Each
/// attribution group therefore contributes 2*sum_j |beta_j| over its
/// symbols, the phi (input embedding) symbols contribute 2*||alpha||_q as
/// the "input.phi" group, and the group widths sum to the observed margin
/// width up to floating-point reassociation.
///
/// Everything here is opt-in: without a profile attached no widths are
/// computed and no symbols are tagged, which keeps the default
/// verification path inside the perf gate.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_PROFILE_H
#define DEEPT_VERIFY_PROFILE_H

#include "verify/Observer.h"
#include "zono/Provenance.h"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace deept {
namespace verify {

/// Width/shape statistics of one intermediate zonotope at a soundness
/// checkpoint site ("verify.layer_input", "verify.attention.scores", ...).
struct CheckpointProfile {
  std::string Site;
  int Layer = -1; ///< Transformer layer index; -1 for network-level sites.
  int Head = -1;  ///< Attention head for per-head sites; -1 otherwise.
  double MeanWidth = 0.0;
  double MaxWidth = 0.0;
  /// Mean width relative to the previous checkpoint's mean width (0 for
  /// the first checkpoint or when the previous mean was 0).
  double Growth = 0.0;
  size_t EpsSyms = 0;
  size_t EpsBlocks = 0;
  double StructuredFrac = 0.0;
  size_t CoeffBytes = 0;
  /// Self time (ms) of the stages that closed since the previous
  /// checkpoint (verify::Stage) -- the cost of producing this zonotope.
  double SinceMs = 0.0;
};

/// One noise-symbol group's share of the final margin width.
struct GroupContribution {
  std::string Group; ///< "input", "input.phi", "layer2.softmax", ...
  size_t Symbols = 0;
  double Width = 0.0; ///< 2 * sum_j |beta_j| (or 2*||alpha||_q for phi).
};

/// The full per-query profile, emitted as one JSONL line via
/// `deept_cli ... --profile-out`. Each run (onRunBegin) resets the
/// measurements, so a profile reused across the probes of a radius
/// search holds the last probe's.
struct PrecisionProfile : Observer {
  /// Query metadata, set by the caller (CLI / scheduler) and passed
  /// through to the JSON line untouched.
  std::string Query;
  std::string Method;
  std::string Norm;
  double Eps = 0.0;

  std::vector<CheckpointProfile> Checkpoints;
  std::vector<GroupContribution> Attribution;
  double MarginLo = 0.0;
  double MarginHi = 0.0;
  double MarginWidth = 0.0;
  bool Falsified = false;
  /// Self time (ms) of every stage of the run: the elapsed time of its
  /// outermost stage.
  double TotalMs = 0.0;

  /// Clears the measured fields (checkpoints, attribution, margin,
  /// timing) while keeping the caller-owned query metadata.
  void resetMeasurements();

  /// The profile as one line of JSON (no trailing newline).
  std::string toJsonLine() const;

  /// Resets the measurements and installs the provenance session on the
  /// calling thread.
  void onRunBegin(const RunInfo &, const zono::Zonotope &) override;
  /// Appends a checkpoint record (mean/max width from Zonotope::radii,
  /// eps-storage shape, stage time since the previous checkpoint).
  void onCheckpoint(const zono::Zonotope &Z, const char *Site, int Layer,
                    int Head) override;
  /// Fills the attribution and margin fields from the final 1x1 margin
  /// zonotope: per-group eps contributions plus the "input.phi" dual-norm
  /// term. Also mirrors summary instruments into the global Metrics
  /// registry (profile.queries, profile.falsified, profile.margin_width,
  /// profile.checkpoint_growth).
  void onMargin(const zono::Zonotope &Margin, size_t TrueClass, double Lo,
                double Hi) override;
  /// Adds the stage's self time to TotalMs and to the next checkpoint.
  void onStage(const char *, int, int, double, double SelfMs) override;
  /// Removes the provenance session.
  void onRunEnd() override;

private:
  double PendingMs = 0.0; ///< Stage self time since the last checkpoint.
  std::optional<zono::ProvenanceSession> Session;
};

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_PROFILE_H
