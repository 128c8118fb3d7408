//===- check/CertCheck.h - Independent certificate replay ------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay half of the proof-certificate layer (the producer lives in
/// verify/Certificate.h; the two deliberately share only the support
/// layer -- JSON, CRC, the error taxonomy -- and not one line of tensor,
/// zonotope or verifier code). checkCertificate() parses one certificate
/// envelope and validates, in order:
///
///  1. envelope shape and payload CRC-32            -> StoreCorrupt,
///  2. payload schema, lengths, finiteness          -> StoreCorrupt
///     (recorded non-finite values -> UnsoundAbstraction),
///  3. symbol bookkeeping and checkpoint site order -> UnsoundAbstraction,
///  4. every recorded interval concretization lo/hi against the
///     directed-rounding replay of c -/+ (a + b)    -> UnsoundAbstraction,
///  5. input box enclosed by the first checkpoint   -> UnsoundAbstraction,
///  6. the margin derivation: dual norms replayed from the raw alpha/beta
///     coefficient vectors, the lo/hi chain, and the verdict
///     certified <=> lo > 0                         -> UnsoundAbstraction.
///
/// What the replay proves: every DERIVATION the producer recorded (norm
/// accumulations, interval concretizations, the final margin bound and
/// verdict) is consistent under directed-rounding interval arithmetic --
/// i.e. the verdict follows from the recorded coefficients. What it does
/// NOT prove: that the recorded coefficients are a sound abstraction of
/// the network (that is the producer's propagation, which the checker by
/// design does not re-run).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_CHECK_CERTCHECK_H
#define DEEPT_CHECK_CERTCHECK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace deept {
namespace check {

/// What a successfully replayed certificate claimed; also the input of
/// semanticDigest().
struct CertificateSummary {
  std::string Query, Kind, Method, Norm, Precision, Isa;
  double P = 2.0;
  size_t Threads = 0;
  uint32_t PayloadCrc = 0;
  size_t TrueClass = 0;
  size_t ModelLayers = 0, ModelEmbed = 0, ModelHeads = 0;
  size_t InputRows = 0, InputCols = 0;
  struct Checkpoint {
    std::string Site;
    int Layer = -1, Head = -1;
    size_t Rows = 0, Cols = 0, PhiSyms = 0, EpsSyms = 0;
  };
  std::vector<Checkpoint> Checkpoints;
  double MarginLo = 0.0;
  bool Certified = false;
};

/// Replays one certificate line. Returns the summary on success; throws
/// support::Error with code StoreCorrupt (malformed artifact) or
/// UnsoundAbstraction (the recorded derivation does not replay) on any
/// violation.
CertificateSummary checkCertificate(std::string_view Line);

/// An ISA-invariant one-line digest of a replayed certificate: query,
/// configuration, bookkeeping (sites, shapes, symbol counts) and the
/// verdict -- everything except the floating-point payload values and the
/// CRC, which are bit-exact only within one ISA (reductions are
/// lane-ordered). Certificates for the same query produced at different
/// ISAs must digest identically; that is CI's cross-ISA soundness check.
std::string semanticDigest(const CertificateSummary &S);

} // namespace check
} // namespace deept

#endif // DEEPT_CHECK_CERTCHECK_H
