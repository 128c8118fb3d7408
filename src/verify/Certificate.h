//===- verify/Certificate.h - Proof certificate producer -------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer half of the proof-certificate layer. A CertificateBuilder
/// is a verifier observer (verify/Observer.h); attached to
/// VerifierConfig::Observers (DeepT) or passed in the feed-forward
/// verifier's observer list, it records, per margin computation:
///
///  * the concretized input region (per-variable lo/hi of the input
///    zonotope),
///  * at every propagation checkpoint (the PR 6 sites: layer inputs,
///    attention scores/outputs, logits) the symbol bookkeeping plus the
///    Theorem 1 derivation inputs -- center, ||alpha_k||_q, ||beta_k||_1
///    -- and the interval concretization computed from them,
///  * the final margin derivation: the raw alpha/beta coefficient vectors
///    of the 1x1 margin zonotope, their dual norms, and the lo/hi bounds
///    the verdict was taken from.
///
/// The artifact is a single-line JSON envelope whose payload is CRC-32
/// checked:
///
///   {"deept_cert":1,"isa":"...","threads":N,"crc32":C,"payload":{...}}
///
/// The CRC covers exactly the payload object's bytes; isa/threads live
/// outside it because results are bit-identical at any thread count
/// within an ISA (so payloads -- and hence CRCs -- must match across
/// thread counts) but reductions are lane-ordered per ISA (so payloads
/// may differ across ISAs; cross-ISA comparison uses the checker's
/// semantic digest instead).
///
/// Soundness contract with the checker (tools/deept_check): every
/// recorded derived value (checkpoint lo/hi, margin lo/hi) is computed
/// HERE, by this builder, from the recorded inputs in a fixed
/// left-to-right association -- lo = c - (a + b) -- matching what
/// Zonotope::bounds() does. The checker replays the same expressions with
/// directed rounding; by rounding monotonicity the round-to-nearest value
/// always falls inside the directed enclosure, so honest certificates
/// verify and a 1-ULP tampering outside the enclosure is rejected.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_CERTIFICATE_H
#define DEEPT_VERIFY_CERTIFICATE_H

#include "verify/Observer.h"

#include <cstddef>
#include <string>
#include <vector>

namespace deept {
namespace verify {

/// One propagation checkpoint: bookkeeping plus the Theorem 1 inputs and
/// the interval concretization derived from them.
struct CertCheckpoint {
  std::string Site;
  int Layer = -1;
  int Head = -1;
  size_t Rows = 0, Cols = 0;
  size_t PhiSyms = 0, EpsSyms = 0, EpsBlocks = 0;
  /// Per-variable (row-major, Rows*Cols each): center, ||alpha_k||_q,
  /// ||beta_k||_1, and lo/hi = center -/+ (phi_norm + eps_norm) computed
  /// by the builder in exactly that association.
  std::vector<double> Center, PhiNorm, EpsNorm, Lo, Hi;
};

/// The final margin derivation over the 1x1 margin zonotope.
struct CertMargin {
  bool Valid = false;
  size_t TrueClass = 0;
  /// Dual exponent of the phi norm (Matrix::InfNorm conventions: -1 means
  /// q = infinity).
  double Q = 2.0;
  double Center = 0.0;
  /// Raw coefficient vectors in ascending symbol order (Beta includes the
  /// zeros of Zero blocks so indices stay aligned with the symbol space).
  std::vector<double> Alpha, Beta;
  /// Producer dual norms ||Alpha||_q and ||Beta||_1 -- the values
  /// bounds() consumed.
  double AlphaNorm = 0.0, BetaNorm = 0.0;
  /// lo/hi = Center -/+ (AlphaNorm + BetaNorm) as bounds() computed them.
  double Lo = 0.0, Hi = 0.0;
  bool Certified = false;
};

/// Everything one certificate records. Query/Method/Norm/P are caller
/// metadata (the CLI / scheduler fill them before serializing); the rest
/// is filled by the builder during the margin computation.
struct CertificateData {
  std::string Query;
  /// "deept" (Transformer) or "ffn" (feed-forward verifier).
  std::string Kind = "deept";
  std::string Method = "fast";
  std::string Norm = "l2";
  double P = 2.0;
  size_t TrueClass = 0;
  size_t ModelLayers = 0, ModelEmbed = 0, ModelHeads = 0;
  size_t InputRows = 0, InputCols = 0;
  std::vector<double> InputLo, InputHi;
  std::vector<CertCheckpoint> Checkpoints;
  CertMargin Margin;

  /// The compact payload object (no whitespace, fixed member order). Its
  /// "precision" member is always "f64", the only kernel precision.
  std::string payloadJson() const;

  /// The full single-line envelope with the payload CRC. No trailing
  /// newline.
  std::string toJson() const;
};

/// The recording observer. One builder serves one margin computation at
/// a time: onRunBegin resets the measurements.
class CertificateBuilder : public Observer {
public:
  CertificateData Data;

  /// Starts a new recording run: keeps the caller metadata
  /// (Query/Method/Norm/P), stamps the verifier kind and the model
  /// dimensions, and records the concretization of the input region.
  void onRunBegin(const RunInfo &Info, const zono::Zonotope &Input) override;

  /// Records one propagation checkpoint.
  void onCheckpoint(const zono::Zonotope &Z, const char *Site, int Layer,
                    int Head) override;

  /// Records the margin derivation; \p Lo / \p Hi are the bounds() output
  /// the verdict was taken from.
  void onMargin(const zono::Zonotope &Margin, size_t TrueClass, double Lo,
                double Hi) override;
};

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_CERTIFICATE_H
