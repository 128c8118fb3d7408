//===- verify/Scheduler.cpp -----------------------------------*- C++ -*-===//

#include "verify/Scheduler.h"

#include "crown/CrownVerifier.h"
#include "support/Crc.h"
#include "support/Fault.h"
#include "support/FlightRecorder.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "verify/Certificate.h"
#include "verify/Profile.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <thread>

using namespace deept;
using namespace deept::verify;
using tensor::Matrix;
using zono::Zonotope;

namespace {

/// Wall-clock deadline of one job attempt. Ms < 0 never expires, Ms == 0
/// expires immediately (the deterministic trigger the tests use), Ms > 0
/// is a real deadline starting at construction. As a verifier observer it
/// checks at the top of every layer and writes a cheap `checkpoint` event
/// (eps symbols, eps blocks, coefficient bytes -- no width computation)
/// to the job's flight recorder, if it has one, so a failed job's artifact
/// shows where the propagation was when it died.
class Deadline : public Observer {
public:
  Deadline(int64_t Ms, support::FlightRecorder *Rec) : Ms(Ms), Rec(Rec) {}

  void check() const {
    if (Ms >= 0 && T.seconds() * 1e3 >= static_cast<double>(Ms))
      throw DeadlineExceeded(Ms);
  }

  void onLayer(size_t) override { check(); }

  void onCheckpoint(const Zonotope &Z, const char *Site, int, int) override {
    if (Rec)
      Rec->record("checkpoint", Site, static_cast<double>(Z.numEps()),
                  static_cast<double>(Z.epsBlockCount()),
                  static_cast<double>(Z.coeffBytes()));
  }

private:
  int64_t Ms;
  support::FlightRecorder *Rec;
  support::Timer T;
};

/// Precise and Combined degrade to Fast; everything else fails outright.
bool degrade(JobMethod &M) {
  if (M == JobMethod::Precise || M == JobMethod::Combined) {
    M = JobMethod::Fast;
    return true;
  }
  return false;
}

std::string normToken(double P) {
  if (P == 1.0)
    return "l1";
  if (P == 2.0)
    return "l2";
  if (P == Matrix::InfNorm)
    return "linf";
  std::ostringstream S;
  S << "p" << P;
  return S.str();
}

/// Job keys become file names for recorder artifacts; anything outside
/// the derived-key alphabet (explicit Ids are free-form) maps to '_'.
std::string fileSafe(const std::string &Key) {
  std::string Out = Key;
  for (char &C : Out) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '-' || C == '_' || C == '.';
    if (!Ok)
      C = '_';
  }
  return Out;
}

} // namespace

const char *deept::verify::jobMethodName(JobMethod M) {
  switch (M) {
  case JobMethod::Fast:
    return "fast";
  case JobMethod::Precise:
    return "precise";
  case JobMethod::Combined:
    return "combined";
  case JobMethod::CrownBaF:
    return "crown-baf";
  case JobMethod::CrownBackward:
    return "crown-backward";
  }
  return "fast";
}

bool deept::verify::parseNormName(const std::string &Name, double &Out) {
  if (Name == "l1")
    Out = 1.0;
  else if (Name == "l2")
    Out = 2.0;
  else if (Name == "linf")
    Out = Matrix::InfNorm;
  else
    return false;
  return true;
}

bool deept::verify::parseJobMethod(const std::string &Name, JobMethod &Out) {
  for (JobMethod M :
       {JobMethod::Fast, JobMethod::Precise, JobMethod::Combined,
        JobMethod::CrownBaF, JobMethod::CrownBackward})
    if (Name == jobMethodName(M)) {
      Out = M;
      return true;
    }
  return false;
}

const char *deept::verify::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Degraded:
    return "degraded";
  case JobStatus::Error:
    return "error";
  case JobStatus::Skipped:
    return "skipped";
  }
  return "error";
}

//===----------------------------------------------------------------------===//
// JobQueue JSON parsing
//===----------------------------------------------------------------------===//

bool JobQueue::fromJson(const support::JsonValue &Doc,
                        const data::SyntheticCorpus *Corpus, JobQueue &Out,
                        std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  const support::JsonValue *Jobs = Doc.find("jobs");
  if (!Jobs || !Jobs->isArray())
    return Fail("jobs document needs a top-level \"jobs\" array");

  for (size_t I = 0; I < Jobs->Items.size(); ++I) {
    const support::JsonValue &J = Jobs->Items[I];
    std::string Where = "job " + std::to_string(I);
    if (!J.isObject())
      return Fail(Where + ": expected an object");
    JobSpec S;
    if (const support::JsonValue *V = J.find("id")) {
      if (V->K != support::JsonValue::Kind::String)
        return Fail(Where + ": \"id\" must be a string");
      S.Id = V->StringVal;
    }

    // Sentence: explicit tokens, or a corpus sample by seed.
    const support::JsonValue *Tokens = J.find("tokens");
    const support::JsonValue *Seed = J.find("seed");
    if (Tokens) {
      if (!Tokens->isArray() || Tokens->Items.empty())
        return Fail(Where + ": \"tokens\" must be a non-empty array");
      for (const support::JsonValue &T : Tokens->Items) {
        if (T.K != support::JsonValue::Kind::Number || T.NumberVal < 0)
          return Fail(Where + ": tokens must be non-negative numbers");
        S.Tokens.push_back(static_cast<size_t>(T.NumberVal));
      }
      const support::JsonValue *Label = J.find("label");
      if (!Label || Label->K != support::JsonValue::Kind::Number)
        return Fail(Where + ": explicit \"tokens\" need a \"label\"");
      S.TrueClass = static_cast<size_t>(Label->NumberVal);
    } else if (Seed) {
      if (Seed->K != support::JsonValue::Kind::Number)
        return Fail(Where + ": \"seed\" must be a number");
      if (!Corpus)
        return Fail(Where + ": \"seed\" jobs need a corpus");
      support::Rng Rng(static_cast<uint64_t>(Seed->NumberVal));
      data::Sentence Sent = Corpus->sampleSentence(Rng);
      S.Tokens = std::move(Sent.Tokens);
      S.TrueClass = Sent.Label;
      if (const support::JsonValue *Label = J.find("label"))
        S.TrueClass = static_cast<size_t>(Label->NumberVal);
    } else {
      return Fail(Where + ": needs \"tokens\" or \"seed\"");
    }

    if (const support::JsonValue *V = J.find("word"))
      S.Word = static_cast<size_t>(V->NumberVal);
    if (const support::JsonValue *V = J.find("norm")) {
      if (V->K != support::JsonValue::Kind::String ||
          !parseNormName(V->StringVal, S.P))
        return Fail(Where + ": \"norm\" must be \"l1\", \"l2\" or \"linf\"");
    }
    if (const support::JsonValue *V = J.find("eps")) {
      if (V->K != support::JsonValue::Kind::Number || V->NumberVal <= 0)
        return Fail(Where + ": \"eps\" must be a positive number");
      S.Epsilon = V->NumberVal;
    }
    if (const support::JsonValue *V = J.find("search")) {
      if (V->K != support::JsonValue::Kind::Bool)
        return Fail(Where + ": \"search\" must be a boolean");
      S.SearchRadius = V->BoolVal;
      if (S.SearchRadius)
        S.Search.InitRadius = S.Epsilon;
    }
    if (const support::JsonValue *V = J.find("method")) {
      if (V->K != support::JsonValue::Kind::String ||
          !parseJobMethod(V->StringVal, S.Method))
        return Fail(Where + ": unknown \"method\" (want fast, precise, "
                            "combined, crown-baf or crown-backward)");
    }
    if (const support::JsonValue *V = J.find("deadline_ms")) {
      if (V->K != support::JsonValue::Kind::Number)
        return Fail(Where + ": \"deadline_ms\" must be a number");
      S.DeadlineMs = static_cast<int64_t>(V->NumberVal);
    }
    if (const support::JsonValue *V = J.find("budget")) {
      if (V->K != support::JsonValue::Kind::Number || V->NumberVal < 0)
        return Fail(Where + ": \"budget\" must be a non-negative number");
      S.NoiseReductionBudget = static_cast<size_t>(V->NumberVal);
    }
    Out.push(std::move(S));
  }
  return true;
}

bool JobQueue::fromJsonFile(const std::string &Path,
                            const data::SyntheticCorpus *Corpus,
                            JobQueue &Out, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = "cannot open jobs file '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  support::JsonValue Doc;
  std::string ParseErr;
  if (!support::parseJson(Buf.str(), Doc, &ParseErr)) {
    if (Err)
      *Err = Path + ": " + ParseErr;
    return false;
  }
  return fromJson(Doc, Corpus, Out, Err);
}

//===----------------------------------------------------------------------===//
// Result store
//===----------------------------------------------------------------------===//

std::string Scheduler::jobKey(const JobSpec &Spec) {
  if (!Spec.Id.empty())
    return Spec.Id;
  // FNV-1a over the query contents (not the deadline: re-running a batch
  // under new latency constraints must still skip completed work).
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  auto MixDouble = [&](double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    Mix(Bits);
  };
  for (size_t T : Spec.Tokens)
    Mix(static_cast<uint64_t>(T) + 1);
  Mix(Spec.TrueClass);
  Mix(Spec.Word);
  MixDouble(Spec.P);
  Mix(Spec.SearchRadius ? 1 : 0);
  if (Spec.SearchRadius) {
    MixDouble(Spec.Search.InitRadius);
    MixDouble(Spec.Search.MaxRadius);
    Mix(static_cast<uint64_t>(Spec.Search.BisectSteps));
  } else {
    MixDouble(Spec.Epsilon);
  }
  Mix(static_cast<uint64_t>(Spec.Method));
  Mix(Spec.NoiseReductionBudget);
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s-%s-w%zu-%s-%016llx",
                jobMethodName(Spec.Method), normToken(Spec.P).c_str(),
                Spec.Word, Spec.SearchRadius ? "search" : "eps",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string Scheduler::resultJsonLine(const JobResult &R) {
  std::string S = "{\"key\":\"" + support::jsonEscape(R.Key) +
                  "\",\"status\":\"" + jobStatusName(R.Status) +
                  "\",\"method\":\"" + jobMethodName(R.MethodUsed) +
                  "\",\"certified\":" + (R.Certified ? "true" : "false") +
                  ",\"margin\":" + support::jsonNumber(R.Margin) +
                  ",\"radius\":" + support::jsonNumber(R.Radius) +
                  ",\"deadline_hit\":" + (R.DeadlineHit ? "true" : "false") +
                  ",\"seconds\":" + support::jsonNumber(R.Seconds) +
                  ",\"queue_ms\":" + support::jsonNumber(R.QueueMs);
  if (R.Retries > 0)
    S += ",\"retries\":" + std::to_string(R.Retries);
  if (R.Code != support::ErrorCode::Ok)
    S += std::string(",\"error_code\":\"") + support::errorCodeName(R.Code) +
         "\"";
  if (!R.Error.empty())
    S += ",\"error\":\"" + support::jsonEscape(R.Error) + "\"";
  return S + "}";
}

std::string Scheduler::withRecordCrc(const std::string &Payload) {
  // CRC over the complete payload object, appended as the final field:
  // {...,"queue_ms":0} -> {...,"queue_ms":0,"crc32":123456}
  uint32_t C = support::crc32(Payload.data(), Payload.size());
  std::string Out = Payload;
  Out.pop_back(); // the closing '}'
  Out += ",\"crc32\":" + std::to_string(C) + "}";
  return Out;
}

std::string Scheduler::resultStoreLine(const JobResult &R) {
  return withRecordCrc(resultJsonLine(R));
}

Scheduler::RecordCrc Scheduler::checkRecordCrc(const std::string &Line) {
  // Strip-and-verify textually: the writer appends `,"crc32":<digits>}`
  // as the very last field, so scan the digits back from the closing
  // brace. A digit run preceded by anything else (e.g. a legacy line
  // ending `"queue_ms":12.5}`) is not a CRC field.
  static const std::string Tag = ",\"crc32\":";
  if (Line.size() < 2 || Line.back() != '}')
    return RecordCrc::Missing;
  size_t End = Line.size() - 1; // index of '}'
  size_t P = End;
  while (P > 0 && Line[P - 1] >= '0' && Line[P - 1] <= '9')
    --P;
  if (P == End || P < Tag.size() ||
      Line.compare(P - Tag.size(), Tag.size(), Tag) != 0)
    return RecordCrc::Missing;
  uint32_t Stored =
      static_cast<uint32_t>(std::strtoul(Line.c_str() + P, nullptr, 10));
  std::string Payload = Line.substr(0, P - Tag.size()) + "}";
  return support::crc32(Payload.data(), Payload.size()) == Stored
             ? RecordCrc::Ok
             : RecordCrc::Mismatch;
}

namespace {

/// Store-line screening for recoverStore: a record whose per-record CRC
/// mismatches is an interior bit-flip -- warn, count, and pretend the key
/// is absent so only that job re-runs.
bool storeLineKey(const std::string &Line, const std::string &Path,
                  std::string &Key) {
  support::JsonValue Doc;
  if (!support::parseJson(Line, Doc))
    return false;
  const support::JsonValue *K = Doc.find("key");
  if (!K || K->K != support::JsonValue::Kind::String)
    return false;
  if (Scheduler::checkRecordCrc(Line) == Scheduler::RecordCrc::Mismatch) {
    static support::Counter &CrcDropped =
        support::Metrics::global().counter("store.crc_dropped");
    CrcDropped.add(1);
    std::fprintf(stderr,
                 "warning: result store '%s': record '%s' fails its CRC "
                 "(interior corruption); the job will re-run\n",
                 Path.c_str(), K->StringVal.c_str());
    return false;
  }
  Key = K->StringVal;
  return true;
}

} // namespace

std::set<std::string> Scheduler::recoverStore(const std::string &Path,
                                              support::Error *Err) {
  std::set<std::string> Keys;
  uint64_t Size = 0;
  if (!support::fileSize(Path, Size))
    return Keys; // no store yet: nothing to recover
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = support::Error(support::ErrorCode::StoreCorrupt,
                            "store.recover",
                            "cannot read store '" + Path + "'");
    return Keys;
  }
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  In.close();

  // Walk the newline-framed records tracking where each starts, so a torn
  // tail (crash mid-append: missing newline, or a final line that is not
  // valid JSON) can be cut at a byte offset. Interior malformed lines are
  // skipped.
  uint64_t KeepBytes = 0; // end of the last intact record
  size_t Pos = 0;
  while (Pos < Contents.size()) {
    size_t Nl = Contents.find('\n', Pos);
    bool Terminated = Nl != std::string::npos;
    size_t End = Terminated ? Nl : Contents.size();
    std::string Line = Contents.substr(Pos, End - Pos);
    bool Parsed = false;
    if (!Line.empty()) {
      support::JsonValue Doc;
      if (support::parseJson(Line, Doc)) {
        // A record that parses frames the file correctly even when its
        // CRC mismatches -- the file is kept intact and only the
        // affected key is withheld, so just that job re-runs.
        Parsed = true;
        std::string Key;
        if (storeLineKey(Line, Path, Key))
          Keys.insert(Key);
      }
    }
    bool Last = !Terminated || Nl + 1 == Contents.size();
    if (Terminated && (Parsed || !Last || Line.empty()))
      KeepBytes = Nl + 1;
    Pos = End + 1;
  }
  if (KeepBytes < Size) {
    std::fprintf(stderr,
                 "warning: result store '%s' has a torn trailing record; "
                 "discarding %llu bytes (the job will re-run)\n",
                 Path.c_str(),
                 static_cast<unsigned long long>(Size - KeepBytes));
    support::truncateFile(Path, KeepBytes, Err);
  }
  return Keys;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Scheduler::executeOne(const JobSpec &Spec, JobMethod Method,
                           int64_t DeadlineMs, JobResult &R,
                           support::FlightRecorder *Rec,
                           PrecisionProfile *Prof,
                           CertificateData *Cert) const {
  using support::Error;
  using support::ErrorCode;
  DEEPT_FAULT_POINT("sched.execute");
  if (Spec.Tokens.empty())
    throw Error(ErrorCode::JobInvalid, "sched.job", "job has no tokens");
  if (Spec.Word >= Spec.Tokens.size())
    throw Error(ErrorCode::JobInvalid, "sched.job",
                "word position " + std::to_string(Spec.Word) +
                    " out of range for a " +
                    std::to_string(Spec.Tokens.size()) + "-token sentence");
  if (Spec.TrueClass >= 2)
    throw Error(ErrorCode::JobInvalid, "sched.job",
                "true class must be 0 or 1");
  if (Spec.Tokens.size() > Model.Config.MaxLen)
    throw Error(ErrorCode::JobInvalid, "sched.job",
                std::to_string(Spec.Tokens.size()) +
                    "-token sentence exceeds the model's maximum length (" +
                    std::to_string(Model.Config.MaxLen) + ")");
  for (size_t T : Spec.Tokens)
    if (T >= Model.Config.VocabSize)
      throw Error(ErrorCode::JobInvalid, "sched.job",
                  "token id " + std::to_string(T) +
                      " outside the vocabulary (" +
                      std::to_string(Model.Config.VocabSize) + ")");

  Deadline D(DeadlineMs, Rec);
  // One builder per attempt; after every certified probe the recorded
  // run is snapshotted into *Cert, so a search job ends with the
  // certificate of its LAST certified probe (the final probe of a
  // bisection may be uncertified) and an attempt that later fails leaves
  // no certificate at all (the caller only writes Valid+Certified
  // snapshots of successful attempts).
  std::optional<CertificateBuilder> CertBuilder;
  if (Cert && Method != JobMethod::CrownBaF &&
      Method != JobMethod::CrownBackward) {
    CertBuilder.emplace();
    CertBuilder->Data.Query = R.Key;
    CertBuilder->Data.Method = jobMethodName(Method);
    CertBuilder->Data.Norm = normToken(Spec.P);
    CertBuilder->Data.P = Spec.P;
  }
  auto MarginAt = [&](double Radius) -> double {
    D.check(); // per-probe check (covers the CROWN paths too)
    if (Rec)
      Rec->record("probe", jobMethodName(Method), Radius);
    if (Method == JobMethod::CrownBaF ||
        Method == JobMethod::CrownBackward) {
      crown::CrownConfig CC;
      CC.Mode = Method == JobMethod::CrownBaF ? crown::CrownMode::BaF
                                              : crown::CrownMode::Backward;
      crown::CrownOutcome O =
          crown::CrownVerifier(Model, CC)
              .certifyMarginLpBall(Spec.Tokens, Spec.Word, Spec.P, Radius,
                                   Spec.TrueClass);
      // A budgeted out-of-memory outcome is "not certified", matching
      // CrownVerifier::certifyLpBall.
      return O.OutOfMemory ? -HUGE_VAL : O.MarginLowerBound;
    }
    VerifierConfig VC;
    VC.NoiseReductionBudget = Spec.NoiseReductionBudget;
    if (Method == JobMethod::Precise)
      VC.Method = zono::DotMethod::Precise;
    if (Method == JobMethod::Combined)
      VC.PreciseLastLayerOnly = true;
    VC.Observers = {&D};
    if (Prof)
      VC.Observers.push_back(Prof);
    if (CertBuilder)
      VC.Observers.push_back(&*CertBuilder);
    DeepTVerifier V(Model, VC);
    Matrix X = Model.embed(Spec.Tokens);
    Zonotope In = Zonotope::lpBallOnRow(X, Spec.Word, Spec.P, Radius);
    double M = V.certifyMargin(In, Spec.TrueClass);
    if (CertBuilder && M > 0.0)
      *Cert = CertBuilder->Data;
    return M;
  };

  R.MethodUsed = Method;
  if (Spec.SearchRadius) {
    R.Radius = certifiedRadius(
        [&](double Radius) { return MarginAt(Radius) > 0.0; }, Spec.Search);
    R.Certified = R.Radius > 0.0;
  } else {
    R.Margin = MarginAt(Spec.Epsilon);
    R.Certified = R.Margin > 0.0;
  }
}

void Scheduler::executeWithDegradation(const JobSpec &Spec, JobResult &R,
                                       support::FlightRecorder *Rec,
                                       PrecisionProfile *Prof,
                                       CertificateData *Cert) const {
  static support::Counter &DeadlineHits =
      support::Metrics::global().counter("sched.deadline_hits");
  static support::Counter &RetryCount =
      support::Metrics::global().counter("sched.retries");
  static support::Histogram &RetryBackoff =
      support::Metrics::global().histogram("sched.retry_backoff_ms");
  int64_t DeadlineMs =
      Spec.DeadlineMs >= 0
          ? Spec.DeadlineMs
          : (Opts.DefaultDeadlineMs > 0 ? Opts.DefaultDeadlineMs : -1);
  JobMethod Method = Spec.Method;
  // Transient failures re-run the current attempt on a jitter-free
  // deterministic schedule: RetryBackoffMs * 2^(attempt-1), capped. The
  // schedule being a pure function of the attempt index keeps drills
  // reproducible (no randomized jitter to smear test timings over).
  auto maybeRetry = [&](support::ErrorCode Code,
                        const char *What) -> bool {
    if (!support::isTransientError(Code) || R.Retries >= Opts.MaxRetries)
      return false;
    ++R.Retries;
    RetryCount.add(1);
    int64_t Delay = Opts.RetryBackoffMs;
    for (int K = 1; K < R.Retries; ++K)
      Delay = std::min(Delay * 2, Opts.RetryBackoffMaxMs);
    Delay = std::min(std::max<int64_t>(Delay, 0), Opts.RetryBackoffMaxMs);
    RetryBackoff.observe(static_cast<double>(Delay));
    if (Rec)
      Rec->record("retry", What, static_cast<double>(Delay),
                  static_cast<double>(R.Retries));
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    return true;
  };
  for (;;) {
    try {
      uint64_t FaultsBefore = support::fault::injectedCount();
      if (Rec)
        Rec->record("attempt_start", jobMethodName(Method),
                    static_cast<double>(DeadlineMs));
      // A degraded retry must not inherit the previous attempt's
      // snapshot (the degraded method's own probes refill it).
      if (Cert)
        *Cert = CertificateData();
      executeOne(Spec, Method, DeadlineMs, R, Rec, Prof, Cert);
      if (Rec) {
        uint64_t Faults = support::fault::injectedCount() - FaultsBefore;
        if (Faults > 0)
          Rec->record("fault", "injected during attempt",
                      static_cast<double>(Faults));
      }
      R.Status =
          Method == Spec.Method ? JobStatus::Ok : JobStatus::Degraded;
      R.Code = support::ErrorCode::Ok;
      return;
    } catch (const DeadlineExceeded &E) {
      DeadlineHits.add(1);
      R.DeadlineHit = true;
      if (degrade(Method)) {
        // The deadline is already blown; a degraded-but-complete answer
        // beats a second miss, so the retry runs without one.
        if (Rec)
          Rec->record("degrade", E.what(),
                      static_cast<double>(DeadlineMs));
        DeadlineMs = -1;
        continue;
      }
      if (Rec)
        Rec->record("deadline", E.what(), static_cast<double>(DeadlineMs));
      R.Status = JobStatus::Error;
      R.Error = E.what();
      R.Code = support::ErrorCode::DeadlineExceeded;
      return;
    } catch (const std::bad_alloc &) {
      // Degradation before retry: a cheaper sound answer now beats the
      // same expensive attempt failing the same way after a backoff.
      if (degrade(Method)) {
        if (Rec)
          Rec->record("degrade", "out of memory");
        DeadlineMs = -1;
        continue;
      }
      if (maybeRetry(support::ErrorCode::OutOfMemory, "out of memory"))
        continue;
      if (Rec)
        Rec->record("oom", "out of memory");
      R.Status = JobStatus::Error;
      R.Error = "out of memory";
      R.Code = support::ErrorCode::OutOfMemory;
      return;
    } catch (const std::exception &E) {
      // A failed attempt must never leave the partial verdict of an
      // aborted propagation behind (in particular an UnsoundAbstraction
      // error can never coexist with Certified = true).
      R.Certified = false;
      R.Margin = 0.0;
      R.Radius = 0.0;
      support::ErrorCode Code = support::codeOf(E);
      if (maybeRetry(Code, E.what()))
        continue;
      if (Rec)
        Rec->record("error", E.what());
      R.Status = JobStatus::Error;
      R.Error = E.what();
      R.Code = Code;
      return;
    }
  }
}

std::vector<JobResult> Scheduler::run(const JobQueue &Queue) const {
  support::TraceSpan BatchSpan("sched.batch");
  support::Metrics &M = support::Metrics::global();
  static support::Counter &Jobs = M.counter("sched.jobs");
  static support::Counter &Degraded = M.counter("sched.degraded");
  static support::Counter &Errors = M.counter("sched.errors");
  static support::Counter &Skipped = M.counter("sched.skipped");
  static support::Histogram &QueueLatencyMs =
      M.histogram("sched.queue_latency_ms");
  static support::Histogram &JobMs = M.histogram("sched.job_ms");

  std::set<std::string> Done;
  if (Opts.Resume && !Opts.JsonlPath.empty()) {
    // Recovery (not just reading): a torn trailing record left by a
    // crash mid-append is truncated away so only that job re-runs.
    Done = recoverStore(Opts.JsonlPath);
  }

  support::AppendFile Store;
  std::mutex StoreMu;
  bool StoreBroken = false;
  if (!Opts.JsonlPath.empty()) {
    support::Error Err;
    if (!Store.open(Opts.JsonlPath, &Err))
      throw Err;
  }
  support::AppendFile ProfileStore;
  std::mutex ProfileMu;
  if (!Opts.ProfileJsonlPath.empty()) {
    support::Error Err;
    if (!ProfileStore.open(Opts.ProfileJsonlPath, &Err))
      throw Err;
  }

  size_t N = Queue.size();
  std::vector<JobResult> Results(N);
  support::Timer BatchTimer;
  support::parallelFor(0, N, 1, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const JobSpec &Spec = Queue.spec(I);
      JobResult &R = Results[I];
      R.Key = jobKey(Spec);
      R.MethodUsed = Spec.Method;
      if (Done.count(R.Key)) {
        R.Status = JobStatus::Skipped;
        Skipped.add(1);
        continue;
      }
      // The span carries the job key (not the queue index) so trace
      // files join against JSONL rows and recorder artifacts offline.
      support::TraceSpan JobSpan("sched.job", R.Key);
      Jobs.add(1);
      R.QueueMs = BatchTimer.seconds() * 1e3;
      QueueLatencyMs.observe(R.QueueMs);
      std::optional<support::FlightRecorder> Rec;
      if (!Opts.RecorderDir.empty())
        Rec.emplace();
      std::optional<PrecisionProfile> Prof;
      if (ProfileStore.isOpen()) {
        Prof.emplace();
        Prof->Query = R.Key;
        Prof->Norm = normToken(Spec.P);
        Prof->Eps = Spec.Epsilon;
      }
      std::optional<CertificateData> Cert;
      if (!Opts.CertDir.empty())
        Cert.emplace();
      support::Timer JobTimer;
      executeWithDegradation(Spec, R, Rec ? &*Rec : nullptr,
                             Prof ? &*Prof : nullptr,
                             Cert ? &*Cert : nullptr);
      R.Seconds = JobTimer.seconds();
      JobMs.observe(R.Seconds * 1e3);
      if (R.Status == JobStatus::Degraded)
        Degraded.add(1);
      else if (R.Status == JobStatus::Error)
        Errors.add(1);
      // Profiles stream for every job the verifier actually profiled
      // (CROWN baselines and failed attempts leave no checkpoints);
      // recorder artifacts persist only for jobs that ended badly --
      // success discards the ring.
      if (Prof && !Prof->Checkpoints.empty()) {
        Prof->Method = jobMethodName(R.MethodUsed);
        std::string Line = Prof->toJsonLine() + "\n";
        std::lock_guard<std::mutex> Lock(ProfileMu);
        support::Error Err;
        ProfileStore.append(Line, Opts.Fsync, &Err);
      }
      // Certificate artifact: only for jobs whose final answer is a
      // DeepT-certified verdict (the snapshot is Valid+Certified exactly
      // then). A failed write -- IO or an injected "cert.write" fault --
      // is counted and warned about, never fatal to the batch.
      if (Cert && Cert->Margin.Valid && Cert->Margin.Certified &&
          R.Certified &&
          (R.Status == JobStatus::Ok || R.Status == JobStatus::Degraded)) {
        static support::Counter &CertEmitted = M.counter("cert.emitted");
        static support::Counter &CertBytes = M.counter("cert.bytes");
        static support::Counter &CertWriteFailures =
            M.counter("cert.write_failures");
        std::string Path =
            Opts.CertDir + "/cert-" + fileSafe(R.Key) + ".json";
        try {
          DEEPT_FAULT_POINT("cert.write");
          std::string Json = Cert->toJson() + "\n";
          support::Error WErr;
          if (!support::atomicWriteFile(Path, Json, &WErr))
            throw WErr;
          CertEmitted.add(1);
          CertBytes.add(static_cast<double>(Json.size()));
          if (Rec)
            Rec->record("certificate", Path.c_str(),
                        static_cast<double>(Json.size()));
        } catch (const std::exception &E) {
          CertWriteFailures.add(1);
          std::fprintf(stderr,
                       "warning: certificate write to '%s' failed: %s\n",
                       Path.c_str(), E.what());
        }
      }
      if (Rec && (R.Status == JobStatus::Error || R.DeadlineHit)) {
        Rec->record("final", jobStatusName(R.Status),
                    R.Certified ? 1.0 : 0.0, R.Seconds * 1e3);
        std::string Path =
            Opts.RecorderDir + "/recorder-" + fileSafe(R.Key) + ".json";
        std::string DumpErr;
        if (!Rec->dumpJson(Path, R.Key, &DumpErr))
          std::fprintf(stderr,
                       "warning: flight-recorder dump to '%s' failed: %s\n",
                       Path.c_str(), DumpErr.c_str());
      }
      if (Store.isOpen()) {
        std::string Line = resultStoreLine(R) + "\n";
        std::lock_guard<std::mutex> Lock(StoreMu);
        support::Error Err;
        if (!StoreBroken && !Store.append(Line, Opts.Fsync, &Err)) {
          // Losing the store must not lose the batch: the results are
          // still returned in memory, so warn once and keep going.
          StoreBroken = true;
          Store.close();
          std::fprintf(stderr,
                       "warning: result store write failed (%s); "
                       "continuing without the store\n",
                       Err.what());
        }
      }
    }
  });
  return Results;
}
