//===- tests/scheduler_test.cpp - Batch scheduler tests --------*- C++ -*-===//
//
// Tests of verify::Scheduler: a mixed batch with forced deadline expiry
// and forced failures gets the right ok/degraded/error tags, the JSONL
// result store resumes by skipping completed keys (and re-runs a record
// whose CRC no longer matches), the jobs file rejects malformed fields and
// repeated ids, and per-job margins are bit-identical to serial
// single-job runs at any thread count.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "verify/Scheduler.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace deept;
using testhelp::ScopedThreads;
using tensor::Matrix;
using verify::JobMethod;
using verify::JobQueue;
using verify::JobResult;
using verify::JobSpec;
using verify::JobStatus;
using verify::Scheduler;
using verify::SchedulerOptions;

namespace {

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
    // Certify against the model's own prediction so margins (and hence
    // searched radii) are positive even for this untrained model.
    Sent.Label = Model.classify(Sent.Tokens);
  }

  JobSpec job(JobMethod M, double Eps = 0.05) const {
    JobSpec J;
    J.Tokens = Sent.Tokens;
    J.TrueClass = Sent.Label;
    J.Word = 0;
    J.P = 2.0;
    J.Epsilon = Eps;
    J.Method = M;
    J.NoiseReductionBudget = 128;
    return J;
  }
};

/// The serial reference for a fixed-eps DeepT job: what a single-query
/// run computes with one thread.
double serialMargin(const TinySetup &S, const JobSpec &J) {
  ScopedThreads T(1);
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = J.NoiseReductionBudget;
  if (J.Method == JobMethod::Precise)
    VC.Method = zono::DotMethod::Precise;
  if (J.Method == JobMethod::Combined)
    VC.PreciseLastLayerOnly = true;
  verify::DeepTVerifier V(S.Model, VC);
  Matrix X = S.Model.embed(J.Tokens);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, J.Word, J.P, J.Epsilon);
  return V.certifyMargin(In, J.TrueClass);
}

TEST(Scheduler, MixedBatchTagsAndDegradation) {
  TinySetup S;
  TempFile Store("scheduler_test_mixed.jsonl");

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));                 // 0: ok
  Q.push(S.job(JobMethod::Precise));              // 1: ok
  Q.push(S.job(JobMethod::Combined));             // 2: ok
  JobSpec Search = S.job(JobMethod::Fast);        // 3: ok (radius search)
  Search.SearchRadius = true;
  Search.Search.InitRadius = 0.05;
  Search.Search.BisectSteps = 3;
  Search.Search.MaxRadius = 8.0;
  Q.push(Search);
  // The deadline jobs repeat queries 0-2, and the derived key excludes
  // the deadline by design -- explicit Ids keep their store rows apart.
  JobSpec Expire = S.job(JobMethod::Precise);     // 4: degraded (forced
  Expire.DeadlineMs = 0;                          //    deadline expiry)
  Expire.Id = "expire-precise";
  Q.push(Expire);
  JobSpec ExpireC = S.job(JobMethod::Combined);   // 5: degraded
  ExpireC.DeadlineMs = 0;
  ExpireC.Id = "expire-combined";
  Q.push(ExpireC);
  JobSpec ExpireF = S.job(JobMethod::Fast);       // 6: error (nothing to
  ExpireF.DeadlineMs = 0;                         //    degrade to)
  ExpireF.Id = "expire-fast";
  Q.push(ExpireF);
  JobSpec Bad = S.job(JobMethod::Fast);           // 7: error (forced throw)
  Bad.Word = 99;
  Q.push(Bad);
  Q.push(S.job(JobMethod::CrownBaF));             // 8: ok (baseline)
  JobSpec ExpireS = Search;                       // 9: degraded (search)
  ExpireS.Method = JobMethod::Precise;
  ExpireS.DeadlineMs = 0;
  ExpireS.Id = "expire-search";
  Q.push(ExpireS);

  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Scheduler Sched(S.Model, Opts);
  std::vector<JobResult> R = Sched.run(Q);
  ASSERT_EQ(R.size(), 10u);

  EXPECT_EQ(R[0].Status, JobStatus::Ok);
  EXPECT_EQ(R[1].Status, JobStatus::Ok);
  EXPECT_EQ(R[2].Status, JobStatus::Ok);
  EXPECT_EQ(R[3].Status, JobStatus::Ok);
  EXPECT_GT(R[3].Radius, 0.0);
  EXPECT_TRUE(R[3].Certified);

  // Forced deadline expiry on Precise/Combined degrades to Fast and
  // produces exactly the Fast answer.
  for (size_t I : {4u, 5u}) {
    EXPECT_EQ(R[I].Status, JobStatus::Degraded) << "job " << I;
    EXPECT_TRUE(R[I].DeadlineHit) << "job " << I;
    EXPECT_EQ(R[I].MethodUsed, JobMethod::Fast) << "job " << I;
    EXPECT_EQ(R[I].Margin, R[0].Margin) << "job " << I;
    EXPECT_TRUE(R[I].Error.empty()) << "job " << I;
  }
  // A search job degrades the same way: its whole search reruns as Fast
  // and finds exactly the Fast search job's radius.
  EXPECT_EQ(R[9].Status, JobStatus::Degraded);
  EXPECT_TRUE(R[9].DeadlineHit);
  EXPECT_EQ(R[9].MethodUsed, JobMethod::Fast);
  EXPECT_EQ(R[9].Radius, R[3].Radius);
  EXPECT_TRUE(R[9].Certified);
  EXPECT_TRUE(R[9].Error.empty());

  // Fast has nothing below it: a blown deadline is an error.
  EXPECT_EQ(R[6].Status, JobStatus::Error);
  EXPECT_TRUE(R[6].DeadlineHit);
  EXPECT_NE(R[6].Error.find("deadline"), std::string::npos);

  EXPECT_EQ(R[7].Status, JobStatus::Error);
  EXPECT_NE(R[7].Error.find("out of range"), std::string::npos);

  // Failures carry their taxonomy code, and the store line spells it out
  // as the machine-readable error_code field.
  EXPECT_EQ(R[6].Code, support::ErrorCode::DeadlineExceeded);
  EXPECT_EQ(R[7].Code, support::ErrorCode::JobInvalid);
  EXPECT_EQ(R[0].Code, support::ErrorCode::Ok);
  EXPECT_NE(Scheduler::resultJsonLine(R[6]).find(
                "\"error_code\":\"deadline_exceeded\""),
            std::string::npos);
  EXPECT_NE(Scheduler::resultJsonLine(R[7]).find(
                "\"error_code\":\"job_invalid\""),
            std::string::npos);
  EXPECT_EQ(Scheduler::resultJsonLine(R[0]).find("error_code"),
            std::string::npos);

  EXPECT_EQ(R[8].Status, JobStatus::Ok);
  EXPECT_EQ(R[8].MethodUsed, JobMethod::CrownBaF);

  // Every job (including errors) landed in the store as valid JSON.
  auto Keys = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Keys.size(), 10u);
  std::ifstream In(Store.path());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    support::JsonValue Doc;
    ASSERT_TRUE(support::parseJson(Line, Doc)) << Line;
    ASSERT_NE(Doc.find("key"), nullptr);
    ASSERT_NE(Doc.find("status"), nullptr);
    ++Lines;
  }
  EXPECT_EQ(Lines, 10u);
}

TEST(Scheduler, ResumeSkipsCompletedJobs) {
  TinySetup S;
  TempFile Store("scheduler_test_resume.jsonl");

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast, 0.02));
  Q.push(S.job(JobMethod::Fast, 0.05));
  Q.push(S.job(JobMethod::Precise, 0.05));

  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.Resume = true;
  Scheduler Sched(S.Model, Opts);

  // First run: nothing to skip.
  std::vector<JobResult> First = Sched.run(Q);
  for (const JobResult &R : First)
    EXPECT_EQ(R.Status, JobStatus::Ok);

  // Second run with one extra job: the three completed keys are skipped,
  // only the new job executes.
  Q.push(S.job(JobMethod::Combined, 0.05));
  std::vector<JobResult> Second = Sched.run(Q);
  ASSERT_EQ(Second.size(), 4u);
  EXPECT_EQ(Second[0].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[1].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[2].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[3].Status, JobStatus::Ok);
  EXPECT_EQ(Scheduler::recoverStore(Store.path()).size(), 4u);

  // A changed deadline must not change the key (resume under new latency
  // constraints still skips completed work).
  JobSpec A = S.job(JobMethod::Fast, 0.02);
  JobSpec B = A;
  B.DeadlineMs = 1234;
  EXPECT_EQ(Scheduler::jobKey(A), Scheduler::jobKey(B));
  // ...but a different query gets a different key, and an explicit Id
  // wins outright.
  EXPECT_NE(Scheduler::jobKey(A),
            Scheduler::jobKey(S.job(JobMethod::Fast, 0.05)));
  B.Id = "my-job";
  EXPECT_EQ(Scheduler::jobKey(B), "my-job");
}

TEST(Scheduler, MarginsBitIdenticalToSerialAcrossThreadCounts) {
  TinySetup S;

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  Q.push(S.job(JobMethod::Precise));
  Q.push(S.job(JobMethod::Combined));
  Q.push(S.job(JobMethod::Fast, 0.01));

  std::vector<double> Serial;
  for (const JobSpec &J : Q.specs())
    Serial.push_back(serialMargin(S, J));

  Scheduler Sched(S.Model);
  for (size_t Threads : {1u, 2u, 8u}) {
    ScopedThreads T(Threads);
    std::vector<JobResult> R = Sched.run(Q);
    ASSERT_EQ(R.size(), Q.size());
    for (size_t I = 0; I < R.size(); ++I) {
      EXPECT_EQ(R[I].Status, JobStatus::Ok);
      EXPECT_EQ(R[I].Margin, Serial[I])
          << "margin differs from serial at " << Threads << " threads (job "
          << I << ")";
    }
  }
}

TEST(Scheduler, JobQueueFromJson) {
  TinySetup S;
  const char *Doc = R"({"jobs":[
    {"id":"a","seed":7,"word":0,"norm":"l2","eps":0.05,"method":"precise",
     "deadline_ms":500,"budget":128},
    {"tokens":[1,2,3],"label":1,"norm":"linf","search":true,"eps":0.1},
    {"seed":9,"method":"crown-baf"}
  ]})";
  support::JsonValue V;
  ASSERT_TRUE(support::parseJson(Doc, V));
  JobQueue Q;
  std::string Err;
  ASSERT_TRUE(JobQueue::fromJson(V, &S.Corpus, Q, &Err)) << Err;
  ASSERT_EQ(Q.size(), 3u);
  EXPECT_EQ(Q.spec(0).Id, "a");
  EXPECT_EQ(Q.spec(0).Method, JobMethod::Precise);
  EXPECT_EQ(Q.spec(0).DeadlineMs, 500);
  EXPECT_EQ(Q.spec(0).NoiseReductionBudget, 128u);
  EXPECT_FALSE(Q.spec(0).Tokens.empty());
  EXPECT_EQ(Q.spec(1).Tokens.size(), 3u);
  EXPECT_EQ(Q.spec(1).TrueClass, 1u);
  EXPECT_TRUE(Q.spec(1).SearchRadius);
  EXPECT_EQ(Q.spec(1).P, Matrix::InfNorm);
  EXPECT_EQ(Q.spec(2).Method, JobMethod::CrownBaF);

  // Malformed documents are rejected with a located error.
  auto Rejects = [&](const char *Text) {
    support::JsonValue Bad;
    ASSERT_TRUE(support::parseJson(Text, Bad));
    JobQueue Dead;
    std::string E;
    EXPECT_FALSE(JobQueue::fromJson(Bad, &S.Corpus, Dead, &E)) << Text;
    EXPECT_FALSE(E.empty());
  };
  Rejects(R"({"nope":[]})");
  Rejects(R"({"jobs":[{"tokens":[1,2]}]})");            // missing label
  Rejects(R"({"jobs":[{"seed":1,"norm":"l7"}]})");      // bad norm
  Rejects(R"({"jobs":[{"seed":1,"method":"magic"}]})"); // bad method
  Rejects(R"({"jobs":[{"seed":1,"eps":-1}]})");         // bad eps
}

/// Integer fields are checked before any cast: a string, a fraction, a
/// negative value, an out-of-range value or a label outside {0, 1}
/// rejects the document with a message naming the field, in both the
/// tokens and the seed form.
TEST(Scheduler, JobQueueRejectsMalformedIntegerFields) {
  TinySetup S;
  struct Case {
    const char *Doc;
    const char *Field; // must appear in the error
  };
  const Case Cases[] = {
      {R"({"jobs":[{"seed":1,"word":"3"}]})", "\"word\""},
      {R"({"jobs":[{"seed":1,"word":-1}]})", "\"word\""},
      {R"({"jobs":[{"seed":1,"word":1.5}]})", "\"word\""},
      {R"({"jobs":[{"seed":1,"word":1e300}]})", "\"word\""},
      {R"({"jobs":[{"seed":1,"word":true}]})", "\"word\""},
      {R"({"jobs":[{"tokens":[1,2],"label":1,"word":-2}]})", "\"word\""},
      {R"({"jobs":[{"tokens":[1,2],"label":2}]})", "\"label\""},
      {R"({"jobs":[{"tokens":[1,2],"label":-1}]})", "\"label\""},
      {R"({"jobs":[{"tokens":[1,2],"label":0.5}]})", "\"label\""},
      {R"({"jobs":[{"tokens":[1,2],"label":"1"}]})", "\"label\""},
      {R"({"jobs":[{"seed":1,"label":2}]})", "\"label\""},
      {R"({"jobs":[{"seed":1,"label":-1}]})", "\"label\""},
      {R"({"jobs":[{"seed":1,"label":"0"}]})", "\"label\""},
      {R"({"jobs":[{"tokens":[1,"2"],"label":0}]})", "\"tokens\""},
      {R"({"jobs":[{"tokens":[1,-2],"label":0}]})", "\"tokens\""},
      {R"({"jobs":[{"tokens":[1,2.5],"label":0}]})", "\"tokens\""},
      {R"({"jobs":[{"tokens":[1e300],"label":0}]})", "\"tokens\""},
      {R"({"jobs":[{"seed":-1}]})", "\"seed\""},
      {R"({"jobs":[{"seed":"7"}]})", "\"seed\""},
      {R"({"jobs":[{"seed":1,"budget":1e300}]})", "\"budget\""},
      {R"({"jobs":[{"seed":1,"budget":-5e300}]})", "\"budget\""},
      {R"({"jobs":[{"seed":1,"budget":1.5}]})", "\"budget\""},
      {R"({"jobs":[{"seed":1,"budget":-2}]})", "\"budget\""},
      {R"({"jobs":[{"seed":1,"budget":"5"}]})", "\"budget\""},
      {R"({"jobs":[{"seed":1,"deadline_ms":1e300}]})", "\"deadline_ms\""},
      {R"({"jobs":[{"seed":1,"deadline_ms":-5e300}]})", "\"deadline_ms\""},
      {R"({"jobs":[{"seed":1,"deadline_ms":1.5}]})", "\"deadline_ms\""},
      {R"({"jobs":[{"seed":1,"deadline_ms":-2}]})", "\"deadline_ms\""},
      {R"({"jobs":[{"seed":1,"deadline_ms":"5"}]})", "\"deadline_ms\""},
      // eps must be finite (1e999 parses to inf), and a search job's eps
      // is its first probe, so it must lie in [MinRadius, MaxRadius].
      {R"({"jobs":[{"seed":1,"eps":1e999}]})", "\"eps\""},
      {R"({"jobs":[{"seed":1,"eps":100,"search":true}]})", "\"eps\""},
      {R"({"jobs":[{"seed":1,"eps":1e-12,"search":true}]})", "\"eps\""},
  };
  for (const Case &C : Cases) {
    support::JsonValue Doc;
    ASSERT_TRUE(support::parseJson(C.Doc, Doc)) << C.Doc;
    JobQueue Q;
    std::string Err;
    EXPECT_FALSE(JobQueue::fromJson(Doc, &S.Corpus, Q, &Err)) << C.Doc;
    EXPECT_NE(Err.find(C.Field), std::string::npos)
        << C.Doc << " -> " << Err;
    EXPECT_NE(Err.find("job 0"), std::string::npos) << Err;
  }
  // The boundary values still parse: word 0, labels 0 and 1, token 0,
  // deadline_ms -1 (inherit) and 0 (expire at once), budget 0, a search
  // eps at either end of the search range, and a fixed eps above it.
  support::JsonValue Doc;
  ASSERT_TRUE(support::parseJson(
      R"({"jobs":[{"tokens":[0,2],"label":0,"word":1,"deadline_ms":-1},)"
      R"({"seed":3,"label":1,"word":0,"deadline_ms":0,"budget":0},)"
      R"({"seed":3,"eps":64,"search":true},)"
      R"({"seed":3,"eps":1e-9,"search":true},)"
      R"({"seed":3,"eps":100}]})",
      Doc));
  JobQueue Q;
  std::string Err;
  ASSERT_TRUE(JobQueue::fromJson(Doc, &S.Corpus, Q, &Err)) << Err;
  EXPECT_EQ(Q.spec(0).Word, 1u);
  EXPECT_EQ(Q.spec(0).TrueClass, 0u);
  EXPECT_EQ(Q.spec(0).Tokens[0], 0u);
  EXPECT_EQ(Q.spec(0).DeadlineMs, -1);
  EXPECT_EQ(Q.spec(1).TrueClass, 1u);
  EXPECT_EQ(Q.spec(1).DeadlineMs, 0);
  EXPECT_EQ(Q.spec(1).NoiseReductionBudget, 0u);
  EXPECT_EQ(Q.spec(2).Search.InitRadius, 64.0);
  EXPECT_EQ(Q.spec(3).Search.InitRadius, 1e-9);
  EXPECT_EQ(Q.spec(4).Epsilon, 100.0);
}

/// A job's key (its id, or the digest of its query) names its store
/// record: a repeated one would make --resume skip the second job unrun,
/// or write two records and one certificate under one key. A repeated
/// "id" and a repeated query without one (the deadline is not part of
/// the derived key) are both rejected, naming the job and the field.
TEST(Scheduler, JobQueueRejectsRepeatedKey) {
  TinySetup S;
  for (const char *Text :
       {R"({"jobs":[{"id":"a","seed":1,"eps":0.02},{"id":"b","seed":1},)"
        R"({"id":"a","seed":2,"eps":0.05}]})",
        R"({"jobs":[{"seed":3,"eps":0.02},{"id":"b","seed":1},)"
        R"({"seed":3,"eps":0.02,"deadline_ms":0}]})"}) {
    support::JsonValue Doc;
    ASSERT_TRUE(support::parseJson(Text, Doc));
    JobQueue Q;
    std::string Err;
    EXPECT_FALSE(JobQueue::fromJson(Doc, &S.Corpus, Q, &Err)) << Text;
    EXPECT_NE(Err.find("job 2"), std::string::npos) << Err;
    EXPECT_NE(Err.find("\"id\""), std::string::npos) << Err;
  }
}

/// The jobs file is untrusted input. Every prefix of a valid document and
/// every single-byte corruption of it (each bit flip, plus bytes that
/// change a number's sign, fraction, exponent or the JSON structure)
/// either fails to parse, is rejected with a message, or yields a queue
/// whose tokens, word and label are in range. Nothing throws.
TEST(Scheduler, JobsFileCorruptionSweep) {
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  const std::string Valid =
      R"({"jobs":[{"id":"a","seed":7,"word":1,"norm":"l2","eps":0.05,)"
      R"("method":"precise","deadline_ms":500,"budget":128,"label":1},)"
      R"({"tokens":[1,2,3],"label":0,"norm":"linf","search":true,)"
      R"("eps":0.1,"deadline_ms":-1}]})";
  {
    support::JsonValue Doc;
    ASSERT_TRUE(support::parseJson(Valid, Doc));
    JobQueue Q;
    std::string Err;
    ASSERT_TRUE(JobQueue::fromJson(Doc, &Corpus, Q, &Err)) << Err;
    ASSERT_EQ(Q.size(), 2u);
  }
  constexpr size_t MaxExact = size_t{1} << 53;
  size_t Parsed = 0, Accepted = 0;
  auto Check = [&](const std::string &Text) {
    support::JsonValue Doc;
    bool Ok = false;
    EXPECT_NO_THROW(Ok = support::parseJson(Text, Doc)) << Text;
    if (!Ok)
      return;
    ++Parsed;
    JobQueue Q;
    std::string Err;
    bool Took = false;
    EXPECT_NO_THROW(Took = JobQueue::fromJson(Doc, &Corpus, Q, &Err))
        << Text;
    if (!Took) {
      EXPECT_FALSE(Err.empty()) << Text;
      return;
    }
    ++Accepted;
    for (size_t I = 0; I < Q.size(); ++I) {
      const JobSpec &S = Q.spec(I);
      EXPECT_FALSE(S.Tokens.empty()) << Text;
      for (size_t T : S.Tokens)
        EXPECT_LE(T, MaxExact) << Text;
      EXPECT_LE(S.Word, MaxExact) << Text;
      EXPECT_LE(S.TrueClass, 1u) << Text;
    }
  };
  for (size_t Len = 0; Len < Valid.size(); ++Len)
    Check(Valid.substr(0, Len));
  const unsigned char Bytes[] = {'-', '.', 'e', '9', '"', ',', ']', '}', 0};
  for (size_t At = 0; At < Valid.size(); ++At) {
    std::string Text = Valid;
    for (unsigned Bit = 0; Bit < 8; ++Bit) {
      Text[At] = static_cast<char>(Valid[At] ^ (1u << Bit));
      Check(Text);
    }
    for (unsigned char B : Bytes) {
      Text[At] = static_cast<char>(B);
      Check(Text);
    }
  }
  // The sweep reaches fromJson's accept and reject paths, not only the
  // parser's errors.
  EXPECT_GT(Parsed, Accepted);
  EXPECT_GT(Accepted, 0u);
}

//===----------------------------------------------------------------------===//
// Crash-safe store recovery
//===----------------------------------------------------------------------===//

namespace {

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(Scheduler, RecoverStoreTruncatesTornTail) {
  TempFile Store("scheduler_test_recover.jsonl");
  const std::string Intact = "{\"key\":\"a\",\"status\":\"ok\"}\n"
                             "not json but terminated: tolerated\n"
                             "{\"key\":\"b\",\"status\":\"ok\"}\n";
  writeFileBytes(Store.path(), Intact + "{\"key\":\"c\",\"stat");
  auto Keys = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Keys.count("a"), 1u);
  EXPECT_EQ(Keys.count("b"), 1u);
  EXPECT_EQ(Keys.count("c"), 0u);
  // The torn record is physically gone, so a later append starts a clean
  // line; interior junk stays (it is framed, just unparseable).
  EXPECT_EQ(readFileBytes(Store.path()), Intact);
  // Recovery of an already-clean store is a no-op.
  auto Again = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Again, Keys);
  EXPECT_EQ(readFileBytes(Store.path()), Intact);
}

TEST(Scheduler, RecoverStoreDropsUnparseableFinalLine) {
  TempFile Store("scheduler_test_recover2.jsonl");
  // A final line that is newline-terminated but not JSON is also the
  // footprint of a torn write (the crash landed inside the payload after
  // a buffered newline); it must re-run, not be silently kept.
  writeFileBytes(Store.path(),
                 "{\"key\":\"a\"}\n{\"key\":\"b\",\"trunc\n");
  auto Keys = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Keys.count("a"), 1u);
  EXPECT_EQ(Keys.size(), 1u);
  EXPECT_EQ(readFileBytes(Store.path()), "{\"key\":\"a\"}\n");
}

TEST(Scheduler, RecoverStoreHandlesMissingFile) {
  EXPECT_TRUE(
      Scheduler::recoverStore("scheduler_test_no_such_store.jsonl").empty());
}

TEST(Scheduler, ResumeReRunsTornTrailingJob) {
  TinySetup S;
  TempFile Store("scheduler_test_torn.jsonl");
  // One thread keeps the store's record order equal to queue order, so
  // the torn tail deterministically belongs to job "c".
  ScopedThreads T(1);

  JobQueue Q;
  JobSpec A = S.job(JobMethod::Fast, 0.02);
  A.Id = "a";
  JobSpec B = S.job(JobMethod::Fast, 0.05);
  B.Id = "b";
  JobSpec C = S.job(JobMethod::Precise, 0.05);
  C.Id = "c";
  Q.push(A);
  Q.push(B);
  Q.push(C);

  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.Resume = true;
  Scheduler Sched(S.Model, Opts);
  std::vector<JobResult> First = Sched.run(Q);
  for (const JobResult &R : First)
    EXPECT_EQ(R.Status, JobStatus::Ok);

  // Simulate a crash mid-append: chop the final record in half.
  std::string Contents = readFileBytes(Store.path());
  ASSERT_GT(Contents.size(), 10u);
  writeFileBytes(Store.path(), Contents.substr(0, Contents.size() - 10));

  // Resume truncates the torn tail and re-runs only job "c".
  std::vector<JobResult> Second = Sched.run(Q);
  ASSERT_EQ(Second.size(), 3u);
  EXPECT_EQ(Second[0].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[1].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[2].Status, JobStatus::Ok);
  EXPECT_EQ(Second[2].Margin, First[2].Margin);

  // The repaired store is fully parseable again with all three keys.
  auto Keys = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys.count("c"), 1u);
  std::ifstream In(Store.path());
  std::string Line;
  while (std::getline(In, Line)) {
    support::JsonValue Doc;
    EXPECT_TRUE(support::parseJson(Line, Doc)) << Line;
  }
}

TEST(Scheduler, SearchBatchBitIdenticalAcrossThreadCounts) {
  TinySetup S;
  JobQueue Q;
  for (double Init : {0.05, 0.02, 0.08}) {
    JobSpec Search = S.job(JobMethod::Fast);
    Search.SearchRadius = true;
    Search.Search.InitRadius = Init;
    Search.Search.BisectSteps = 3;
    Search.Search.MaxRadius = 8.0;
    Q.push(Search);
  }

  // One batch of radius searches per thread count: the searched radii
  // must agree bit-for-bit however the pool interleaves the jobs.
  std::vector<std::vector<double>> PerThreadRadii;
  for (size_t Threads : {1u, 2u, 8u}) {
    ScopedThreads T(Threads);
    std::vector<JobResult> R = Scheduler(S.Model).run(Q);
    std::vector<double> Radii;
    for (const JobResult &J : R) {
      EXPECT_EQ(J.Status, JobStatus::Ok);
      Radii.push_back(J.Radius);
    }
    PerThreadRadii.push_back(std::move(Radii));
  }
  for (size_t I = 1; I < PerThreadRadii.size(); ++I)
    EXPECT_EQ(PerThreadRadii[0], PerThreadRadii[I]);
}

TEST(Scheduler, FsyncedStoreIsWellFormed) {
  TinySetup S;
  TempFile Store("scheduler_test_fsync.jsonl");
  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.Fsync = true;
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Ok);
  EXPECT_EQ(Scheduler::recoverStore(Store.path()).size(), 1u);
}

TEST(Scheduler, OverLongJobIsInvalidNotFatal) {
  // A token list longer than the model's MaxLen is a typed job error next
  // to a clean job, not an abort of the whole batch in the embedding.
  TinySetup S;
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  JobSpec Long = S.job(JobMethod::Fast);
  Long.Tokens.assign(S.Model.Config.MaxLen + 1, S.Sent.Tokens[0]);
  Q.push(Long);
  std::vector<JobResult> R = Scheduler(S.Model).run(Q);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0].Status, JobStatus::Ok);
  EXPECT_EQ(R[1].Status, JobStatus::Error);
  EXPECT_EQ(R[1].Code, support::ErrorCode::JobInvalid);
  EXPECT_FALSE(R[1].Certified);
}

//===----------------------------------------------------------------------===//
// Per-record CRCs in the JSONL store
//===----------------------------------------------------------------------===//

TEST(Scheduler, RecordCrcRoundTrip) {
  std::string Line = Scheduler::withRecordCrc("{\"key\":\"a\",\"x\":1}");
  EXPECT_NE(Line.find(",\"crc32\":"), std::string::npos);
  EXPECT_EQ(Line.back(), '}');
  EXPECT_EQ(Scheduler::checkRecordCrc(Line), Scheduler::RecordCrc::Ok);

  // Any payload flip breaks the check; a record without the field (a
  // store written before CRCs existed) is Missing, which resume
  // tolerates.
  std::string Flipped = Line;
  Flipped[2] = 'K';
  EXPECT_EQ(Scheduler::checkRecordCrc(Flipped),
            Scheduler::RecordCrc::Mismatch);
  EXPECT_EQ(Scheduler::checkRecordCrc("{\"key\":\"a\",\"x\":1}"),
            Scheduler::RecordCrc::Missing);
}

TEST(Scheduler, ResumeReRunsOnlyCrcCorruptedRecord) {
  TinySetup S;
  TempFile Store("scheduler_test_crcstore.jsonl");
  // One thread keeps store order equal to queue order, so line 1 is
  // deterministically job "b".
  ScopedThreads T(1);

  JobQueue Q;
  JobSpec A = S.job(JobMethod::Fast, 0.02);
  A.Id = "a";
  JobSpec B = S.job(JobMethod::Fast, 0.05);
  B.Id = "b";
  JobSpec C = S.job(JobMethod::Precise, 0.05);
  C.Id = "c";
  Q.push(A);
  Q.push(B);
  Q.push(C);

  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.Resume = true;
  Scheduler Sched(S.Model, Opts);
  std::vector<JobResult> First = Sched.run(Q);
  for (const JobResult &R : First)
    EXPECT_EQ(R.Status, JobStatus::Ok);

  // Flip one interior byte of record "b" (an undetectable-by-framing
  // corruption: the line still parses as JSON). The CRC catches it.
  std::string Bytes = readFileBytes(Store.path());
  size_t Pos = Bytes.find("\"key\":\"b\"");
  ASSERT_NE(Pos, std::string::npos);
  Pos = Bytes.find("\"status\":\"ok\"", Pos);
  ASSERT_NE(Pos, std::string::npos);
  Bytes[Pos + 10] = 'O';
  writeFileBytes(Store.path(), Bytes);

  double DroppedBefore =
      support::Metrics::global().counterValue("store.crc_dropped");
  std::vector<JobResult> Second = Sched.run(Q);
  ASSERT_EQ(Second.size(), 3u);
  EXPECT_EQ(Second[0].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[1].Status, JobStatus::Ok); // re-ran, not trusted
  EXPECT_EQ(Second[2].Status, JobStatus::Skipped);
  EXPECT_EQ(Second[1].Margin, First[1].Margin);
  EXPECT_GT(support::Metrics::global().counterValue("store.crc_dropped"),
            DroppedBefore);

  // The store ends with a fresh, CRC-valid record for "b".
  auto Keys = Scheduler::recoverStore(Store.path());
  EXPECT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys.count("b"), 1u);
}

} // namespace
