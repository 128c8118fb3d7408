//===- check/CertCheck.cpp ------------------------------------*- C++ -*-===//

#include "check/CertCheck.h"

#include "check/Interval.h"
#include "support/Crc.h"
#include "support/Error.h"
#include "support/Json.h"

#include <cmath>
#include <limits>

using namespace deept;
using namespace deept::check;
using support::Error;
using support::ErrorCode;
using support::JsonValue;

namespace {

[[noreturn]] void corrupt(const std::string &Why) {
  throw Error(ErrorCode::StoreCorrupt, "check.certificate", Why);
}

[[noreturn]] void unsound(const std::string &Why) {
  throw Error(ErrorCode::UnsoundAbstraction, "check.replay", Why);
}

const JsonValue &member(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    corrupt(std::string("missing member '") + Key + "'");
  return *V;
}

std::string getString(const JsonValue &Obj, const char *Key) {
  const JsonValue &V = member(Obj, Key);
  if (V.K != JsonValue::Kind::String)
    corrupt(std::string("member '") + Key + "' is not a string");
  return V.StringVal;
}

double getNumber(const JsonValue &Obj, const char *Key) {
  const JsonValue &V = member(Obj, Key);
  // The producer serializes non-finite doubles as null (JSON has no
  // Inf/NaN tokens); a null where a derivation value belongs means the
  // producer recorded a non-finite value, which is a soundness failure,
  // not a malformed artifact.
  if (V.K == JsonValue::Kind::Null)
    unsound(std::string("non-finite recorded value at '") + Key + "'");
  if (V.K != JsonValue::Kind::Number)
    corrupt(std::string("member '") + Key + "' is not a number");
  return V.NumberVal;
}

size_t getCount(const JsonValue &Obj, const char *Key) {
  double D = getNumber(Obj, Key);
  if (D < 0 || D != std::floor(D))
    corrupt(std::string("member '") + Key + "' is not a count");
  return static_cast<size_t>(D);
}

int getInt(const JsonValue &Obj, const char *Key) {
  double D = getNumber(Obj, Key);
  if (D != std::floor(D))
    corrupt(std::string("member '") + Key + "' is not an integer");
  return static_cast<int>(D);
}

std::vector<double> getNumberArray(const JsonValue &Obj, const char *Key,
                                   size_t ExpectLen) {
  const JsonValue &V = member(Obj, Key);
  if (V.K != JsonValue::Kind::Array)
    corrupt(std::string("member '") + Key + "' is not an array");
  if (V.Items.size() != ExpectLen)
    unsound(std::string("array '") + Key + "' has " +
            std::to_string(V.Items.size()) + " entries, bookkeeping says " +
            std::to_string(ExpectLen));
  std::vector<double> Out;
  Out.reserve(V.Items.size());
  for (const JsonValue &E : V.Items) {
    if (E.K == JsonValue::Kind::Null)
      unsound(std::string("non-finite recorded value in array '") + Key +
              "'");
    if (E.K != JsonValue::Kind::Number)
      corrupt(std::string("array '") + Key + "' has a non-number entry");
    Out.push_back(E.NumberVal);
  }
  return Out;
}

/// N ULPs outward; the input-enclosure comparison allows the first
/// checkpoint this much slack (noise reduction re-derives the bounds with
/// the same kernels, so they can only be equal or wider, but we do not
/// want the check to hinge on that being bit-exact forever).
double ulpsDown(double X, int N) {
  for (int I = 0; I < N; ++I)
    X = std::nextafter(X, -std::numeric_limits<double>::infinity());
  return X;
}

double ulpsUp(double X, int N) {
  for (int I = 0; I < N; ++I)
    X = std::nextafter(X, std::numeric_limits<double>::infinity());
  return X;
}

const char *const DeepTSites[] = {"verify.layer_input",
                                  "verify.attention.scores",
                                  "verify.attention.output",
                                  "verify.layer_output", "verify.logits"};
const char *const FfnSites[] = {"ffn.input", "ffn.layer_output"};

bool knownSite(const std::string &Kind, const std::string &Site) {
  if (Kind == "deept") {
    for (const char *S : DeepTSites)
      if (Site == S)
        return true;
    return false;
  }
  for (const char *S : FfnSites)
    if (Site == S)
      return true;
  return false;
}

} // namespace

CertificateSummary check::checkCertificate(std::string_view Line) {
  // Trim trailing newline / whitespace (JSONL readers hand us raw lines).
  while (!Line.empty() &&
         (Line.back() == '\n' || Line.back() == '\r' || Line.back() == ' '))
    Line.remove_suffix(1);
  if (Line.empty())
    corrupt("empty certificate line");

  JsonValue Doc;
  std::string ParseErr;
  if (!support::parseJson(Line, Doc, &ParseErr))
    corrupt("certificate is not valid JSON: " + ParseErr);
  if (!Doc.isObject())
    corrupt("certificate is not a JSON object");

  CertificateSummary S;

  // Envelope.
  if (getNumber(Doc, "deept_cert") != 1.0)
    corrupt("unsupported certificate version");
  S.Isa = getString(Doc, "isa");
  S.Threads = getCount(Doc, "threads");
  double CrcField = getNumber(Doc, "crc32");
  if (CrcField < 0 || CrcField > 4294967295.0 ||
      CrcField != std::floor(CrcField))
    corrupt("crc32 field is not a 32-bit value");
  S.PayloadCrc = static_cast<uint32_t>(CrcField);
  const JsonValue &Payload = member(Doc, "payload");
  if (!Payload.isObject())
    corrupt("payload is not an object");

  // CRC over the raw payload bytes. The producer emits the payload as
  // the envelope's last member with nothing after it but the closing
  // brace, so the byte range runs from the first "payload": marker to
  // the character before the final '}'.
  static const std::string_view Marker = "\"payload\":";
  size_t Pos = Line.find(Marker);
  if (Pos == std::string_view::npos || Line.back() != '}')
    corrupt("payload bytes not locatable for CRC");
  std::string_view Raw = Line.substr(Pos + Marker.size(),
                                     Line.size() - 1 - (Pos + Marker.size()));
  if (Raw.empty() || Raw.front() != '{' || Raw.back() != '}')
    corrupt("payload bytes not locatable for CRC");
  uint32_t Actual = support::crc32(Raw.data(), Raw.size());
  if (Actual != S.PayloadCrc)
    corrupt("payload CRC mismatch (stored " + std::to_string(S.PayloadCrc) +
            ", computed " + std::to_string(Actual) + ")");

  // Payload schema and metadata.
  if (getNumber(Payload, "v") != 1.0)
    corrupt("unsupported payload version");
  S.Query = getString(Payload, "query");
  S.Kind = getString(Payload, "kind");
  if (S.Kind != "deept" && S.Kind != "ffn")
    corrupt("unknown certificate kind '" + S.Kind + "'");
  S.Method = getString(Payload, "method");
  S.Norm = getString(Payload, "norm");
  S.Precision = getString(Payload, "precision");
  if (S.Precision != "f64")
    corrupt("unknown precision '" + S.Precision + "'");
  S.P = getNumber(Payload, "p");
  S.TrueClass = getCount(Payload, "true_class");
  if (S.TrueClass > 1)
    corrupt("true_class out of range");
  const JsonValue &Model = member(Payload, "model");
  if (!Model.isObject())
    corrupt("model is not an object");
  S.ModelLayers = getCount(Model, "layers");
  S.ModelEmbed = getCount(Model, "embed");
  S.ModelHeads = getCount(Model, "heads");

  // Input region.
  const JsonValue &Input = member(Payload, "input");
  if (!Input.isObject())
    corrupt("input is not an object");
  S.InputRows = getCount(Input, "rows");
  S.InputCols = getCount(Input, "cols");
  size_t InVars = S.InputRows * S.InputCols;
  if (InVars == 0)
    unsound("empty input region");
  std::vector<double> InLo = getNumberArray(Input, "lo", InVars);
  std::vector<double> InHi = getNumberArray(Input, "hi", InVars);
  for (size_t V = 0; V < InVars; ++V)
    if (InLo[V] > InHi[V])
      unsound("input box has lo > hi");

  // Checkpoints: bookkeeping, site order, and the interval replay.
  const JsonValue &Cps = member(Payload, "checkpoints");
  if (!Cps.isArray())
    corrupt("checkpoints is not an array");
  if (Cps.Items.empty())
    unsound("certificate has no checkpoints");
  std::vector<double> FirstLo, FirstHi;
  for (size_t I = 0; I < Cps.Items.size(); ++I) {
    const JsonValue &C = Cps.Items[I];
    if (!C.isObject())
      corrupt("checkpoint is not an object");
    CertificateSummary::Checkpoint Cp;
    Cp.Site = getString(C, "site");
    if (!knownSite(S.Kind, Cp.Site))
      unsound("unknown checkpoint site '" + Cp.Site + "' for kind '" +
              S.Kind + "'");
    Cp.Layer = getInt(C, "layer");
    Cp.Head = getInt(C, "head");
    Cp.Rows = getCount(C, "rows");
    Cp.Cols = getCount(C, "cols");
    Cp.PhiSyms = getCount(C, "phi_syms");
    Cp.EpsSyms = getCount(C, "eps_syms");
    size_t N = Cp.Rows * Cp.Cols;
    if (N == 0)
      unsound("checkpoint with zero variables");
    std::vector<double> Center = getNumberArray(C, "center", N);
    std::vector<double> A = getNumberArray(C, "phi_norm", N);
    std::vector<double> B = getNumberArray(C, "eps_norm", N);
    std::vector<double> Lo = getNumberArray(C, "lo", N);
    std::vector<double> Hi = getNumberArray(C, "hi", N);
    for (size_t V = 0; V < N; ++V) {
      if (A[V] < 0.0 || B[V] < 0.0)
        unsound("negative dual norm at checkpoint " + Cp.Site);
      if (!loEnclosure(Center[V], A[V], B[V]).contains(Lo[V]))
        unsound("checkpoint " + Cp.Site + " lower bound does not replay: " +
                "var " + std::to_string(V));
      if (!hiEnclosure(Center[V], A[V], B[V]).contains(Hi[V]))
        unsound("checkpoint " + Cp.Site + " upper bound does not replay: " +
                "var " + std::to_string(V));
    }
    if (I == 0) {
      FirstLo = std::move(Lo);
      FirstHi = std::move(Hi);
    }
    S.Checkpoints.push_back(std::move(Cp));
  }
  const char *WantFirst = S.Kind == "deept" ? "verify.layer_input"
                                            : "ffn.input";
  const char *WantLast = S.Kind == "deept" ? "verify.logits"
                                           : "ffn.layer_output";
  if (S.Checkpoints.front().Site != WantFirst)
    unsound("first checkpoint is '" + S.Checkpoints.front().Site +
            "', expected '" + WantFirst + "'");
  if (S.Checkpoints.back().Site != WantLast)
    unsound("last checkpoint is '" + S.Checkpoints.back().Site +
            "', expected '" + WantLast + "'");

  // The input region must be enclosed by the first checkpoint (noise
  // reduction and the identity re-concretization can only widen bounds;
  // allow 4 ULPs of slack so the check does not depend on that being
  // bit-exact).
  const CertificateSummary::Checkpoint &Cp0 = S.Checkpoints.front();
  if (Cp0.Rows != S.InputRows || Cp0.Cols != S.InputCols)
    unsound("first checkpoint shape does not match the input region");
  for (size_t V = 0; V < InVars; ++V) {
    if (InLo[V] < ulpsDown(FirstLo[V], 4) || InHi[V] > ulpsUp(FirstHi[V], 4))
      unsound("input box not enclosed by the first checkpoint at var " +
              std::to_string(V));
  }

  // Margin replay.
  const JsonValue &M = member(Payload, "margin");
  if (!M.isObject())
    corrupt("margin is not an object");
  if (getCount(M, "true_class") != S.TrueClass)
    unsound("margin true_class disagrees with the query true_class");
  double Q = getNumber(M, "q");
  if (Q != 1.0 && Q != 2.0 && Q != -1.0)
    corrupt("unsupported dual exponent q");
  double Center = getNumber(M, "center");
  const CertificateSummary::Checkpoint &Logits = S.Checkpoints.back();
  std::vector<double> Alpha = getNumberArray(M, "alpha", Logits.PhiSyms);
  std::vector<double> Beta = getNumberArray(M, "beta", Logits.EpsSyms);
  double Na = getNumber(M, "alpha_norm");
  double Nb = getNumber(M, "beta_norm");
  double Lo = getNumber(M, "lo");
  double Hi = getNumber(M, "hi");
  const JsonValue &CertV = member(M, "certified");
  if (CertV.K != JsonValue::Kind::Bool)
    corrupt("margin certified is not a boolean");
  if (Na < 0.0 || Nb < 0.0)
    unsound("negative margin dual norm");
  Interval NA = dualNormEnclosure(Q, Alpha);
  Interval NB = dualNormEnclosure(1.0, Beta);
  if (Na < NA.Lo)
    unsound("recorded ||alpha||_q is below the replayed norm");
  if (Nb < NB.Lo)
    unsound("recorded ||beta||_1 is below the replayed norm");
  if (Na > NA.Hi)
    unsound("recorded ||alpha||_q is above the replayed norm");
  if (Nb > NB.Hi)
    unsound("recorded ||beta||_1 is above the replayed norm");
  if (!loEnclosure(Center, Na, Nb).contains(Lo))
    unsound("margin lower bound does not replay from the recorded norms");
  if (!hiEnclosure(Center, Na, Nb).contains(Hi))
    unsound("margin upper bound does not replay from the recorded norms");
  if (CertV.BoolVal != (Lo > 0.0))
    unsound("certified verdict disagrees with the margin lower bound");
  S.MarginLo = Lo;
  S.Certified = CertV.BoolVal;
  return S;
}

std::string check::semanticDigest(const CertificateSummary &S) {
  std::string Out = "deept-cert-digest v1";
  Out += " query=" + support::jsonEscape(S.Query);
  Out += " kind=" + S.Kind;
  Out += " method=" + S.Method;
  Out += " norm=" + S.Norm;
  Out += " precision=" + S.Precision;
  Out += " p=" + support::jsonNumber(S.P);
  Out += " true_class=" + std::to_string(S.TrueClass);
  Out += " model=" + std::to_string(S.ModelLayers) + "/" +
         std::to_string(S.ModelEmbed) + "/" + std::to_string(S.ModelHeads);
  Out += " input=" + std::to_string(S.InputRows) + "x" +
         std::to_string(S.InputCols);
  Out += " checkpoints=";
  for (size_t I = 0; I < S.Checkpoints.size(); ++I) {
    const CertificateSummary::Checkpoint &C = S.Checkpoints[I];
    if (I)
      Out += ",";
    Out += C.Site + ":" + std::to_string(C.Layer) + ":" +
           std::to_string(C.Head) + ":" + std::to_string(C.Rows) + "x" +
           std::to_string(C.Cols) + ":" + std::to_string(C.PhiSyms) + "+" +
           std::to_string(C.EpsSyms);
  }
  Out += " certified=";
  Out += S.Certified ? "1" : "0";
  return Out;
}
