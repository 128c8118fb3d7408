//===- tests/profile_test.cpp - Precision observability tests --*- C++ -*-===//
//
// Tests of the precision-observability subsystem: noise-symbol provenance
// tagging and reduction remapping (zono/Provenance.h), per-query precision
// profiles whose attribution decomposes the margin width exactly
// (verify/Profile.h), and the scheduler's profile JSONL streaming for
// clean and degraded jobs.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "verify/DeepT.h"
#include "verify/Profile.h"
#include "verify/Scheduler.h"
#include "zono/Provenance.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace deept;
using support::JsonValue;
using testhelp::ScopedThreads;
using tensor::Matrix;
using verify::JobMethod;
using verify::JobQueue;
using verify::JobResult;
using verify::JobSpec;
using verify::JobStatus;
using verify::PrecisionProfile;
using verify::Scheduler;
using verify::SchedulerOptions;
using zono::ProvenanceSession;
using zono::SymbolProvenance;

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
    Sent.Label = Model.classify(Sent.Tokens);
  }
};

//===----------------------------------------------------------------------===//
// SymbolProvenance
//===----------------------------------------------------------------------===//

TEST(SymbolProvenance, FreshSymbolsTagWithCurrentGroup) {
  SymbolProvenance P;
  P.noteFresh(0, 3); // default group: "input"
  uint32_t Prev = P.pushGroup("layer0.softmax");
  EXPECT_EQ(Prev, 0u);
  P.noteFresh(3, 2);
  P.restoreGroup(Prev);
  EXPECT_EQ(P.groupOf(0), "input");
  EXPECT_EQ(P.groupOf(2), "input");
  EXPECT_EQ(P.groupOf(3), "layer0.softmax");
  EXPECT_EQ(P.groupOf(4), "layer0.softmax");
  // Never-tagged indices default to "input".
  EXPECT_EQ(P.groupOf(99), "input");
}

TEST(SymbolProvenance, GapPaddingDefaultsToInput) {
  SymbolProvenance P;
  P.pushGroup("pooler");
  // Tagging [2, 3) with a gap below: indices 0-1 pad as "input".
  P.noteFresh(2, 1);
  EXPECT_EQ(P.numTagged(), 3u);
  EXPECT_EQ(P.groupOf(0), "input");
  EXPECT_EQ(P.groupOf(1), "input");
  EXPECT_EQ(P.groupOf(2), "pooler");
}

TEST(SymbolProvenance, InterningReusesGroupIds) {
  SymbolProvenance P;
  uint32_t A1 = P.pushGroup("layer1.ffn");
  uint32_t Cur = P.currentGroup();
  P.restoreGroup(A1);
  P.pushGroup("layer1.ffn");
  EXPECT_EQ(P.currentGroup(), Cur); // same name, same interned id
  EXPECT_EQ(P.groupNames().size(), 2u); // "input" + "layer1.ffn"
}

TEST(SymbolProvenance, NoteReductionRemapsSurvivors) {
  SymbolProvenance P;
  P.noteFresh(0, 1); // 0: input
  P.pushGroup("a");
  P.noteFresh(1, 2); // 1,2: a
  P.pushGroup("b");
  P.noteFresh(3, 2); // 3,4: b
  // Reduction keeps old indices 1 and 4: new 0 <- old 1, new 1 <- old 4.
  P.noteReduction({1, 4});
  EXPECT_EQ(P.numTagged(), 2u);
  EXPECT_EQ(P.groupOf(0), "a");
  EXPECT_EQ(P.groupOf(1), "b");
  // Fold symbols appended after the reduction tag with the current group.
  P.noteFresh(2, 1);
  EXPECT_EQ(P.groupOf(2), "b");
}

TEST(SymbolProvenance, SessionInstallsAndRestoresThreadLocal) {
  EXPECT_EQ(SymbolProvenance::active(), nullptr);
  {
    ProvenanceSession Outer;
    EXPECT_EQ(SymbolProvenance::active(), &Outer.provenance());
    {
      ProvenanceSession Inner;
      EXPECT_EQ(SymbolProvenance::active(), &Inner.provenance());
    }
    EXPECT_EQ(SymbolProvenance::active(), &Outer.provenance());
  }
  EXPECT_EQ(SymbolProvenance::active(), nullptr);
}

// The group guard is the verifier's stage scope (verify::Stage).
TEST(SymbolProvenance, GroupGuardNestsAndIsNoopWithoutSession) {
  const verify::ObserverList None;
  {
    // No session: the guard must not crash or install anything.
    verify::Stage G(None, "test.orphan", -1, -1, "orphan");
    EXPECT_EQ(SymbolProvenance::active(), nullptr);
  }
  ProvenanceSession S;
  SymbolProvenance &P = S.provenance();
  EXPECT_EQ(P.currentGroup(), 0u);
  {
    verify::Stage G(None, "test.layer", 2, -1, "softmax");
    P.noteFresh(0, 1);
    EXPECT_EQ(P.groupOf(0), "layer2.softmax");
    {
      verify::Stage Inner(None, "test.pooler", -1, -1, "pooler");
      P.noteFresh(1, 1);
      EXPECT_EQ(P.groupOf(1), "pooler");
    }
    P.noteFresh(2, 1);
    EXPECT_EQ(P.groupOf(2), "layer2.softmax"); // restored by inner guard
    {
      // A stage without a group leaves the current one.
      verify::Stage Plain(None, "test.plain", 2);
      P.noteFresh(3, 1);
      EXPECT_EQ(P.groupOf(3), "layer2.softmax");
    }
  }
  EXPECT_EQ(P.currentGroup(), 0u);
}

TEST(SymbolProvenance, AppendFreshEpsHookTags) {
  ProvenanceSession S;
  Matrix C(1, 2);
  C.at(0, 0) = 0.0;
  C.at(0, 1) = 0.0;
  zono::Zonotope Z = zono::Zonotope::constant(C, /*PhiP=*/2.0);
  const verify::ObserverList None;
  {
    verify::Stage G(None, "test.softmax", 0, -1, "softmax");
    Z.appendFreshEps({{0, 0.5}});
  }
  Z.appendFreshEps({{1, 0.25}});
  SymbolProvenance &P = S.provenance();
  ASSERT_EQ(P.numTagged(), Z.numEps());
  EXPECT_EQ(P.groupOf(0), "layer0.softmax");
  EXPECT_EQ(P.groupOf(1), "input");
}

//===----------------------------------------------------------------------===//
// PrecisionProfile
//===----------------------------------------------------------------------===//

/// Sum of the attribution group widths; exact decomposition of the margin
/// width up to floating-point reassociation.
double attributionSum(const PrecisionProfile &P) {
  double Sum = 0.0;
  for (const verify::GroupContribution &G : P.Attribution)
    Sum += G.Width;
  return Sum;
}

bool hasGroupWithPrefix(const PrecisionProfile &P, const std::string &Prefix) {
  for (const verify::GroupContribution &G : P.Attribution)
    if (G.Group.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

class ProfileTest : public ::testing::Test {
protected:
  TinySetup S;

  /// Certifies word 0 of the fixture sentence at (P, Eps) with profiling
  /// attached and returns the margin lower bound.
  double certifyProfiled(double P, double Eps, PrecisionProfile &Prof) {
    verify::VerifierConfig VC;
    VC.NoiseReductionBudget = 128;
    VC.Observers = {&Prof};
    verify::DeepTVerifier V(S.Model, VC);
    Matrix X = S.Model.embed(S.Sent.Tokens);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, 0, P, Eps);
    return V.certifyMargin(In, S.Sent.Label);
  }
};

TEST_F(ProfileTest, AttributionSumsToMarginWidth) {
  // Both norms, a certifiable eps and a falsifying one: the group widths
  // must reproduce the observed margin width to reassociation error.
  for (double P : {2.0, Matrix::InfNorm}) {
    for (double Eps : {0.05, 5.0}) {
      PrecisionProfile Prof;
      double Lo = certifyProfiled(P, Eps, Prof);
      EXPECT_DOUBLE_EQ(Lo, Prof.MarginLo);
      EXPECT_GT(Prof.MarginHi, Prof.MarginLo);
      EXPECT_NEAR(Prof.MarginWidth, Prof.MarginHi - Prof.MarginLo, 1e-12);
      EXPECT_EQ(Prof.Falsified, !(Lo > 0.0));
      double Sum = attributionSum(Prof);
      EXPECT_NEAR(Sum, Prof.MarginWidth,
                  1e-9 * std::max(1.0, Prof.MarginWidth))
          << "P=" << P << " Eps=" << Eps;
    }
  }
}

TEST_F(ProfileTest, AttributionNamesTheStages) {
  PrecisionProfile Prof;
  certifyProfiled(2.0, 0.05, Prof);
  ASSERT_FALSE(Prof.Attribution.empty());
  // The input-embedding dual-norm term is always present and first.
  EXPECT_EQ(Prof.Attribution.front().Group, "input.phi");
  EXPECT_GT(Prof.Attribution.front().Symbols, 0u);
  // Layer-scoped stages created fresh symbols somewhere in the network.
  EXPECT_TRUE(hasGroupWithPrefix(Prof, "layer"));
  for (const verify::GroupContribution &G : Prof.Attribution) {
    EXPECT_FALSE(G.Group.empty());
    EXPECT_GE(G.Width, 0.0);
  }
}

TEST_F(ProfileTest, CheckpointsCoverThePropagation) {
  PrecisionProfile Prof;
  certifyProfiled(2.0, 0.05, Prof);
  ASSERT_FALSE(Prof.Checkpoints.empty());
  EXPECT_EQ(Prof.Checkpoints.front().Site, "verify.layer_input");
  EXPECT_EQ(Prof.Checkpoints.front().Layer, 0);
  EXPECT_EQ(Prof.Checkpoints.back().Site, "verify.logits");
  EXPECT_EQ(Prof.Checkpoints.back().Layer, -1);
  size_t LayerInputs = 0, ScoreSites = 0;
  for (const verify::CheckpointProfile &C : Prof.Checkpoints) {
    EXPECT_GE(C.MaxWidth, C.MeanWidth);
    EXPECT_GE(C.MeanWidth, 0.0);
    EXPECT_GE(C.SinceMs, 0.0);
    if (C.Site == "verify.layer_input")
      ++LayerInputs;
    if (C.Site == "verify.attention.scores") {
      ++ScoreSites;
      EXPECT_GE(C.Head, 0); // per-head site
    }
  }
  EXPECT_EQ(LayerInputs, 2u);                 // one per transformer layer
  EXPECT_EQ(ScoreSites, 2u * 2u);             // layers x heads
  // The nonlinearities created eps symbols by the time we reach logits
  // (the l2 input itself carries only phi symbols).
  EXPECT_GT(Prof.Checkpoints.back().EpsSyms, 0u);
  EXPECT_GT(Prof.TotalMs, 0.0);
}

TEST_F(ProfileTest, ResetKeepsQueryMetadata) {
  PrecisionProfile Prof;
  Prof.Query = "s0-w0";
  Prof.Method = "fast";
  Prof.Norm = "l2";
  Prof.Eps = 0.05;
  certifyProfiled(2.0, 0.05, Prof);
  ASSERT_FALSE(Prof.Checkpoints.empty());
  Prof.resetMeasurements();
  EXPECT_TRUE(Prof.Checkpoints.empty());
  EXPECT_TRUE(Prof.Attribution.empty());
  EXPECT_EQ(Prof.MarginWidth, 0.0);
  EXPECT_FALSE(Prof.Falsified);
  EXPECT_EQ(Prof.Query, "s0-w0");
  EXPECT_EQ(Prof.Method, "fast");
  EXPECT_EQ(Prof.Norm, "l2");
  EXPECT_EQ(Prof.Eps, 0.05);
}

TEST_F(ProfileTest, JsonLineParsesAndCarriesTheSchema) {
  PrecisionProfile Prof;
  Prof.Query = "q\"quoted\"";
  Prof.Method = "precise";
  Prof.Norm = "linf";
  Prof.Eps = 0.1;
  certifyProfiled(Matrix::InfNorm, 0.1, Prof);
  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(support::parseJson(Prof.toJsonLine(), Doc, &Err)) << Err;
  const JsonValue *Query = Doc.find("query");
  ASSERT_NE(Query, nullptr);
  EXPECT_EQ(Query->StringVal, "q\"quoted\"");
  ASSERT_NE(Doc.find("margin_width"), nullptr);
  const JsonValue *Checkpoints = Doc.find("checkpoints");
  ASSERT_NE(Checkpoints, nullptr);
  ASSERT_TRUE(Checkpoints->isArray());
  ASSERT_FALSE(Checkpoints->Items.empty());
  EXPECT_NE(Checkpoints->Items[0].find("site"), nullptr);
  EXPECT_NE(Checkpoints->Items[0].find("mean_width"), nullptr);
  const JsonValue *Attr = Doc.find("attribution");
  ASSERT_NE(Attr, nullptr);
  ASSERT_TRUE(Attr->isArray());
  ASSERT_FALSE(Attr->Items.empty());
  EXPECT_NE(Attr->Items[0].find("group"), nullptr);
  EXPECT_NE(Attr->Items[0].find("width"), nullptr);
}

TEST_F(ProfileTest, ProfilingDoesNotChangeTheMargin) {
  // Observability must be read-only: the certified margin with profiling
  // attached is bit-identical to the plain run.
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  verify::DeepTVerifier Plain(S.Model, VC);
  Matrix X = S.Model.embed(S.Sent.Tokens);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, 0, 2.0, 0.05);
  double Ref = Plain.certifyMargin(In, S.Sent.Label);
  PrecisionProfile Prof;
  EXPECT_EQ(certifyProfiled(2.0, 0.05, Prof), Ref);
}

//===----------------------------------------------------------------------===//
// Scheduler profile streaming
//===----------------------------------------------------------------------===//

TEST(SchedulerObservability, ProfilesStreamForCleanAndDegradedJobs) {
  TinySetup S;
  ScopedThreads T(2);
  TempFile Store("profile_test_store.jsonl");
  TempFile Profiles("profile_test_profiles.jsonl");

  JobQueue Q;
  JobSpec Ok;
  Ok.Id = "ok-job";
  Ok.Tokens = S.Sent.Tokens;
  Ok.TrueClass = S.Sent.Label;
  Ok.Word = 0;
  Ok.P = 2.0;
  Ok.Epsilon = 0.05;
  Ok.Method = JobMethod::Fast;
  Ok.NoiseReductionBudget = 128;
  Q.push(Ok);
  JobSpec Dead = Ok;
  Dead.Id = "dead-job";
  Dead.Method = JobMethod::Precise;
  Dead.DeadlineMs = 0; // forced expiry -> degrade to Fast
  Q.push(Dead);

  SchedulerOptions SO;
  SO.JsonlPath = Store.path();
  SO.ProfileJsonlPath = Profiles.path();
  Scheduler Sched(S.Model, SO);
  std::vector<JobResult> Results = Sched.run(Q);

  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Results[1].Status, JobStatus::Degraded);
  EXPECT_TRUE(Results[1].DeadlineHit);

  // Both executed jobs streamed a profile line; each parses and carries
  // the attribution schema, and the degraded job reports the method that
  // actually answered (fast).
  std::ifstream In(Profiles.path());
  std::string Line, Err;
  size_t Lines = 0;
  bool SawFastDead = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    JsonValue P;
    ASSERT_TRUE(support::parseJson(Line, P, &Err)) << Err;
    ASSERT_NE(P.find("query"), nullptr);
    ASSERT_NE(P.find("margin_width"), nullptr);
    ASSERT_NE(P.find("attribution"), nullptr);
    if (P.find("query")->StringVal == "dead-job" &&
        P.find("method")->StringVal == "fast")
      SawFastDead = true;
  }
  EXPECT_EQ(Lines, 2u);
  EXPECT_TRUE(SawFastDead);
}

/// A search job's profile line holds its last probe's run, so the eps it
/// streams must be that probe's radius: re-probing at the streamed eps
/// reproduces the streamed margin_lo bit for bit.
TEST(SchedulerObservability, SearchJobProfileStampsTheProbedEps) {
  TinySetup S;
  TempFile Profiles("profile_test_search_profiles.jsonl");
  JobSpec J;
  J.Id = "search-job";
  J.Tokens = S.Sent.Tokens;
  J.TrueClass = S.Sent.Label;
  J.Word = 0;
  J.P = 2.0;
  J.Epsilon = 0.05;
  J.SearchRadius = true;
  J.Method = JobMethod::Fast;
  J.NoiseReductionBudget = 128;
  JobQueue Q;
  Q.push(J);

  SchedulerOptions SO;
  SO.ProfileJsonlPath = Profiles.path();
  std::vector<JobResult> Results = Scheduler(S.Model, SO).run(Q);
  ASSERT_EQ(Results.size(), 1u);
  ASSERT_EQ(Results[0].Status, JobStatus::Ok);
  ASSERT_GT(Results[0].Radius, 0.0);

  std::ifstream In(Profiles.path());
  std::string Line, Err;
  ASSERT_TRUE(std::getline(In, Line));
  JsonValue P;
  ASSERT_TRUE(support::parseJson(Line, P, &Err)) << Err;
  double Eps = P.find("eps")->NumberVal;
  double MarginLo = P.find("margin_lo")->NumberVal;
  // The search probes radii other than the job's fixed eps, so a line
  // stamped with Spec.Epsilon would not match its margin.
  EXPECT_NE(Eps, J.Epsilon);
  EXPECT_EQ(verify::probeMargin(S.Model, J, JobMethod::Fast, Eps), MarginLo)
      << "eps " << Eps;
}

} // namespace
