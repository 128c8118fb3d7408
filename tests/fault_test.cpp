//===- tests/fault_test.cpp - Fault-injection framework tests --*- C++ -*-===//
//
// Unit tests of the support/Fault spec language and site hooks, plus
// end-to-end drills: injected IO faults must surface as typed errors from
// the model loader, and injected non-finite values in a propagation must
// surface as unsound_abstraction job errors -- never as `certified`.
//
//===----------------------------------------------------------------------===//

#include "data/SyntheticCorpus.h"
#include "nn/Serialize.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "verify/Scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <new>
#include <string>
#include <vector>

using namespace deept;
using support::Error;
using support::ErrorCode;
using verify::JobMethod;
using verify::JobQueue;
using verify::JobResult;
using verify::JobSpec;
using verify::JobStatus;
using verify::Scheduler;
using verify::SchedulerOptions;
namespace fault = deept::support::fault;

namespace {

/// Arms a spec for the scope and disarms on exit, so a failing assertion
/// cannot leak an armed fault into later tests.
class ScopedFaults {
public:
  explicit ScopedFaults(const std::string &Spec) {
    std::string Err;
    EXPECT_TRUE(fault::arm(Spec, &Err)) << Err;
  }
  ~ScopedFaults() { fault::disarm(); }
};

/// Deletes a temp file on scope exit.
class TempFile {
public:
  explicit TempFile(std::string Path) : Path(std::move(Path)) {
    std::remove(this->Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Same tiny corpus + untrained model setup as scheduler_test.cpp.
struct TinySetup {
  data::SyntheticCorpus Corpus;
  nn::TransformerModel Model;
  data::Sentence Sent;

  TinySetup() : Corpus(data::CorpusConfig::sstLike(16)) {
    nn::TransformerConfig Cfg;
    Cfg.MaxLen = 16;
    Cfg.EmbedDim = 16;
    Cfg.NumHeads = 2;
    Cfg.HiddenDim = 16;
    Cfg.NumLayers = 2;
    support::Rng Rng(0x5eed);
    Model = nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);
    support::Rng SentRng(7);
    Sent = Corpus.sampleSentence(SentRng);
    Sent.Label = Model.classify(Sent.Tokens);
  }

  JobSpec job(JobMethod M) const {
    JobSpec J;
    J.Tokens = Sent.Tokens;
    J.TrueClass = Sent.Label;
    J.Word = 0;
    J.P = 2.0;
    J.Epsilon = 0.05;
    J.Method = M;
    J.NoiseReductionBudget = 128;
    return J;
  }
};

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec language
//===----------------------------------------------------------------------===//

TEST(Fault, ArmAndDisarm) {
  EXPECT_FALSE(fault::armed());
  ASSERT_TRUE(fault::arm("a.b:1:fail"));
  EXPECT_TRUE(fault::armed());
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::injectedCount(), 0u);
  // An empty spec disarms too.
  ASSERT_TRUE(fault::arm("x.y:0:nan"));
  ASSERT_TRUE(fault::arm(""));
  EXPECT_FALSE(fault::armed());
}

TEST(Fault, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(fault::arm("nocolons", &Err));
  EXPECT_NE(Err.find("site:count:kind"), std::string::npos);
  EXPECT_FALSE(fault::arm(":1:fail", &Err));
  EXPECT_NE(Err.find("empty site"), std::string::npos);
  EXPECT_FALSE(fault::arm("a.b:x:fail", &Err));
  EXPECT_NE(Err.find("count"), std::string::npos);
  EXPECT_FALSE(fault::arm("a.b:1:bogus", &Err));
  EXPECT_NE(Err.find("unknown kind"), std::string::npos);
  EXPECT_FALSE(fault::arm("a.b:1:delay:-5", &Err));
  EXPECT_NE(Err.find("param"), std::string::npos);
  // One bad spec in a list rejects the whole list and arms nothing.
  EXPECT_FALSE(fault::arm("a.b:1:fail,c.d:1:bogus", &Err));
  EXPECT_FALSE(fault::armed());
  // A well-formed multi-spec arms.
  EXPECT_TRUE(fault::arm("a.b:1:fail,c.d:0:nan,e.f:2:delay:5", &Err)) << Err;
  EXPECT_TRUE(fault::armed());
  fault::disarm();
}

//===----------------------------------------------------------------------===//
// Site hook semantics (direct calls, independent of the macro gate)
//===----------------------------------------------------------------------===//

TEST(Fault, PointFiresAtNthHitOnly) {
  ScopedFaults F("t.point:2:fail");
  EXPECT_NO_THROW(fault::point("t.point")); // hit 1
  try {
    fault::point("t.point"); // hit 2: fires
    FAIL() << "expected an injected fault";
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::FaultInjected);
    EXPECT_EQ(E.site(), "t.point");
  }
  EXPECT_NO_THROW(fault::point("t.point")); // hit 3: already fired
  EXPECT_NO_THROW(fault::point("t.other")); // different site never fires
  EXPECT_EQ(fault::injectedCount(), 1u);
}

TEST(Fault, UnarmedHitsDoNotMaskALaterArm) {
  // Hits while disarmed take the one-load fast path and count nothing, so
  // arming afterwards still fires on the next hit (hit 1 of the spec).
  fault::disarm();
  for (int I = 0; I < 3; ++I)
    EXPECT_NO_THROW(fault::point("t.late"));
  EXPECT_FALSE(fault::ioFail("t.late"));
  ScopedFaults F("t.late:1:fail");
  EXPECT_THROW(fault::point("t.late"), Error);
  EXPECT_NO_THROW(fault::point("t.late"));
  EXPECT_EQ(fault::injectedCount(), 1u);
}

TEST(Fault, CountZeroFiresEveryHit) {
  ScopedFaults F("t.every:0:fail");
  for (int I = 0; I < 3; ++I)
    EXPECT_THROW(fault::point("t.every"), Error);
  EXPECT_EQ(fault::injectedCount(), 3u);
}

TEST(Fault, AllocKindThrowsBadAlloc) {
  ScopedFaults F("t.alloc:1:alloc");
  EXPECT_THROW(fault::point("t.alloc"), std::bad_alloc);
}

TEST(Fault, DelayKindSleeps) {
  ScopedFaults F("t.delay:1:delay:40");
  auto Start = std::chrono::steady_clock::now();
  fault::point("t.delay");
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  EXPECT_GE(Ms, 30);
}

TEST(Fault, KindsFilterByHookType) {
  // A `short` spec only answers the IO hook; a `fail` spec only the
  // point hook. Neither cross-fires.
  ScopedFaults F("t.io:1:short,t.io:1:fail");
  EXPECT_THROW(fault::point("t.io"), Error);
  EXPECT_TRUE(fault::ioFail("t.io"));
  EXPECT_FALSE(fault::ioFail("t.io")); // its single shot is spent
}

TEST(Fault, CorruptPoisonsMiddleElement) {
  {
    ScopedFaults F("t.corrupt:1:nan");
    std::vector<double> Data(5, 1.0);
    fault::corrupt("t.corrupt", Data.data(), Data.size());
    EXPECT_TRUE(std::isnan(Data[2]));
    EXPECT_EQ(Data[0], 1.0);
    EXPECT_EQ(Data[4], 1.0);
  }
  {
    ScopedFaults F("t.corrupt:1:inf");
    std::vector<double> Data(5, 1.0);
    fault::corrupt("t.corrupt", Data.data(), Data.size());
    EXPECT_TRUE(std::isinf(Data[2]));
  }
}

//===----------------------------------------------------------------------===//
// End-to-end drills through the compiled-in sites
//===----------------------------------------------------------------------===//

TEST(Fault, ShortReadFailsModelLoadTyped) {
  TinySetup S;
  TempFile File(::testing::TempDir() + "/fault_load.dptm");
  ASSERT_TRUE(nn::saveModel(File.path(), S.Model));
  {
    ScopedFaults F("serialize.read:1:short");
    nn::TransformerModel M;
    Error Err;
    EXPECT_FALSE(nn::loadModel(File.path(), M, &Err));
    EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt);
  }
  // Disarmed, the same file loads fine.
  nn::TransformerModel M;
  Error Err;
  EXPECT_TRUE(nn::loadModel(File.path(), M, &Err)) << Err.what();
}

TEST(Fault, PayloadCorruptionCaughtByFinitenessCheck) {
  TinySetup S;
  TempFile File(::testing::TempDir() + "/fault_payload.dptm");
  ASSERT_TRUE(nn::saveModel(File.path(), S.Model));
  ScopedFaults F("serialize.payload:1:nan");
  nn::TransformerModel M;
  Error Err;
  EXPECT_FALSE(nn::loadModel(File.path(), M, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt);
  EXPECT_NE(std::string(Err.what()).find("non-finite"), std::string::npos);
}

TEST(Fault, WriteFaultLeavesExistingFileIntact) {
  TinySetup S;
  TempFile File(::testing::TempDir() + "/fault_save.dptm");
  ASSERT_TRUE(nn::saveModel(File.path(), S.Model));
  std::string Before = readFileBytes(File.path());
  ScopedFaults F("serialize.write:1:short");
  Error Err;
  EXPECT_FALSE(nn::saveModel(File.path(), S.Model, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
  EXPECT_EQ(readFileBytes(File.path()), Before);
}

TEST(Fault, UnsoundPropagationIsNeverCertified) {
  TinySetup S;
  // Poison every propagation: the soundness validator must turn each one
  // into a structured unsound_abstraction error, never a certified
  // verdict built on NaN arithmetic.
  ScopedFaults F("verify.propagate:0:nan");
  JobQueue Q;
  JobSpec J = S.job(JobMethod::Fast);
  J.Id = "unsound";
  Q.push(J);
  // The failed job's profile line keeps the checkpoints its run passed,
  // the last being the site whose soundness check failed.
  SchedulerOptions Opts;
  TempFile Profiles(::testing::TempDir() + "/fault_unsound_profiles.jsonl");
  Opts.ProfileJsonlPath = Profiles.path();
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Error);
  EXPECT_EQ(R[0].Code, ErrorCode::UnsoundAbstraction);
  EXPECT_FALSE(R[0].Certified);
  // The error text names the site where the propagation died.
  EXPECT_NE(R[0].Error.find("at verify.layer_input"), std::string::npos)
      << R[0].Error;
  std::string Line = Scheduler::resultJsonLine(R[0]);
  EXPECT_NE(Line.find("\"error_code\":\"unsound_abstraction\""),
            std::string::npos);
  EXPECT_NE(Line.find("\"certified\":false"), std::string::npos);
  support::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(support::parseJson(readFileBytes(Profiles.path()), Doc, &Err))
      << Err;
  const support::JsonValue *Checkpoints = Doc.find("checkpoints");
  ASSERT_NE(Checkpoints, nullptr);
  ASSERT_FALSE(Checkpoints->Items.empty());
  EXPECT_EQ(Checkpoints->Items.back().find("site")->StringVal,
            "verify.layer_input");
}

TEST(Fault, AllocFaultDegradesPreciseToFast) {
  TinySetup S;
  ScopedFaults F("sched.execute:1:alloc");
  JobQueue Q;
  Q.push(S.job(JobMethod::Precise));
  std::vector<JobResult> R = Scheduler(S.Model).run(Q);
  ASSERT_EQ(R.size(), 1u);
  // The first attempt OOMs; the degradation ladder retries as Fast.
  EXPECT_EQ(R[0].Status, JobStatus::Degraded);
  EXPECT_EQ(R[0].MethodUsed, JobMethod::Fast);
  EXPECT_EQ(R[0].Code, ErrorCode::Ok);
  EXPECT_TRUE(R[0].Error.empty());
}

TEST(Fault, AllocFaultOnFastIsOutOfMemoryError) {
  TinySetup S;
  ScopedFaults F("sched.execute:1:alloc");
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  std::vector<JobResult> R = Scheduler(S.Model).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Error);
  EXPECT_EQ(R[0].Code, ErrorCode::OutOfMemory);
}

TEST(Fault, InjectedFailureIsTypedInStore) {
  TinySetup S;
  TempFile Store("fault_test_store.jsonl");
  ScopedFaults F("sched.execute:1:fail");
  SchedulerOptions O;
  O.JsonlPath = Store.path();
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  std::vector<JobResult> R = Scheduler(S.Model, O).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Error);
  EXPECT_EQ(R[0].Code, ErrorCode::FaultInjected);
  std::string Stored = readFileBytes(Store.path());
  EXPECT_NE(Stored.find("\"error_code\":\"fault_injected\""),
            std::string::npos);
}

TEST(Fault, StoreWriteFailureKeepsBatchRunning) {
  TinySetup S;
  TempFile Store("fault_test_broken_store.jsonl");
  // Every append fails short: the batch must warn, keep computing, and
  // return results in memory instead of aborting.
  ScopedFaults F("store.write:0:short");
  SchedulerOptions O;
  O.JsonlPath = Store.path();
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  Q.push(S.job(JobMethod::Precise));
  std::vector<JobResult> R;
  EXPECT_NO_THROW(R = Scheduler(S.Model, O).run(Q));
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0].Status, JobStatus::Ok);
  EXPECT_EQ(R[1].Status, JobStatus::Ok);
  // Nothing durable landed in the broken store.
  EXPECT_TRUE(Scheduler::recoverStore(Store.path()).empty());
}
