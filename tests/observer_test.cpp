//===- tests/observer_test.cpp - Verifier observer contract ----*- C++ -*-===//
//
// The protocol both verifiers deliver to a verify::Observer (see
// verify/Observer.h): call order on DeepT and on the feed-forward
// verifier, one run per margin computation, onRunEnd on the exception
// path (with the profile's thread-local provenance session
// removed), and the shared soundness check at the first checkpoint.
// The stage ledger (verify::Stage): one onStage per stage in close order,
// the profile's stage times taken from it, the span and provenance-group
// names perfbench reads, and self times that account for the wall time.
//
//===----------------------------------------------------------------------===//

#include "data/SyntheticCorpus.h"
#include "nn/FeedForwardNet.h"
#include "nn/Transformer.h"
#include "TestHelpers.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "verify/DeepT.h"
#include "verify/FeedForwardVerifier.h"
#include "verify/Observer.h"
#include "verify/Profile.h"
#include "zono/Provenance.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

using namespace deept;
using tensor::Matrix;
using verify::RunInfo;
using zono::Zonotope;

namespace {

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

  Zonotope input(double Eps) const {
    return Zonotope::lpBallOnRow(Model.embed(Sent.Tokens), 0, 2.0, Eps);
  }
};

struct Site {
  std::string Name;
  int Layer, Head;
  bool operator==(const Site &O) const {
    return Name == O.Name && Layer == O.Layer && Head == O.Head;
  }
};

/// "<Name>@<Layer>,<Head>", the form stage and checkpoint events log in.
std::string at(const std::string &Name, int Layer, int Head) {
  return Name + "@" + std::to_string(Layer) + "," + std::to_string(Head);
}

/// Logs every hook as one string; optionally throws from onRunBegin or
/// onLayer.
struct Recording : verify::Observer {
  std::vector<std::string> Calls;
  std::vector<Site> Sites;
  /// Layers, checkpoints and stages, interleaved in delivery order.
  std::vector<std::string> Events;
  /// Per checkpoint: the stage self time delivered since the previous one.
  std::vector<double> SinceAtCheckpoint;
  double Since = 0.0, SelfSum = 0.0, LastElapsed = 0.0;
  bool SelfWithinElapsed = true;
  RunInfo Info;
  double MarginLo = 0.0;
  size_t ThrowAtLayer = static_cast<size_t>(-1);
  bool ThrowOnBegin = false;
  bool SessionDuringRun = false;

  void onRunBegin(const RunInfo &I, const Zonotope &) override {
    Info = I;
    Calls.push_back("begin");
    if (ThrowOnBegin)
      throw std::runtime_error("observer abort");
  }
  void onLayer(size_t L) override {
    Calls.push_back("layer" + std::to_string(L));
    Events.push_back("layer" + std::to_string(L));
    SessionDuringRun = zono::SymbolProvenance::active() != nullptr;
    if (L == ThrowAtLayer)
      throw std::runtime_error("observer abort");
  }
  void onCheckpoint(const Zonotope &, const char *S, int Layer,
                    int Head) override {
    Calls.push_back(std::string("cp:") + S);
    Sites.push_back({S, Layer, Head});
    Events.push_back("cp:" + at(S, Layer, Head));
    SinceAtCheckpoint.push_back(Since);
    Since = 0.0;
  }
  void onStage(const char *Span, int Layer, int Head, double ElapsedMs,
               double SelfMs) override {
    Events.push_back("stage:" + at(Span, Layer, Head));
    Since += SelfMs;
    SelfSum += SelfMs;
    LastElapsed = ElapsedMs;
    SelfWithinElapsed &= SelfMs >= 0.0 && SelfMs <= ElapsedMs;
  }
  void onMargin(const Zonotope &, size_t, double Lo, double) override {
    Calls.push_back("margin");
    MarginLo = Lo;
  }
  void onRunEnd() override { Calls.push_back("end"); }
};

TEST(Observer, DeepTCallOrderMatchesTheProfile) {
  TinySetup S;
  Recording Rec;
  verify::PrecisionProfile Prof;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Observers = {&Rec, &Prof};
  double M = verify::DeepTVerifier(S.Model, VC)
                 .certifyMargin(S.input(0.05), S.Sent.Label);

  EXPECT_STREQ(Rec.Info.Kind, "deept");
  EXPECT_EQ(Rec.Info.TrueClass, S.Sent.Label);
  EXPECT_EQ(Rec.Info.Layers, 2u);
  EXPECT_EQ(Rec.Info.Embed, 16u);
  EXPECT_EQ(Rec.Info.Heads, 2u);

  // The checkpoint sites are exactly the profile's, and each layer's
  // onLayer precedes that layer's checkpoints.
  std::vector<Site> ProfSites;
  std::vector<std::string> Want = {"begin"};
  int Layer = -1;
  for (const verify::CheckpointProfile &C : Prof.Checkpoints) {
    ProfSites.push_back({C.Site, C.Layer, C.Head});
    if (C.Layer > Layer) {
      Layer = C.Layer;
      Want.push_back("layer" + std::to_string(Layer));
    }
    Want.push_back("cp:" + C.Site);
  }
  Want.push_back("margin");
  Want.push_back("end");
  EXPECT_EQ(Rec.Sites, ProfSites);
  EXPECT_EQ(Rec.Calls, Want);
  EXPECT_EQ(Layer, 1);
  ASSERT_FALSE(Rec.Sites.empty());
  EXPECT_EQ(Rec.Sites.back(), (Site{"verify.logits", -1, -1}));
  // Per layer: input, scores + output per head, output.
  EXPECT_EQ(Rec.Sites.size(), 2u * (2u + 2u * 2u) + 1u);

  // The stage ledger: each stage closes once, in order, with its layer
  // and head, around the checkpoints taken inside it.
  std::vector<std::string> WantEvents;
  auto Stage = [&](const char *Span, int L, int H) {
    WantEvents.push_back(std::string("stage:") + at(Span, L, H));
  };
  auto Cp = [&](const char *Site, int L, int H) {
    WantEvents.push_back(std::string("cp:") + at(Site, L, H));
  };
  for (int L = 0; L < 2; ++L) {
    WantEvents.push_back("layer" + std::to_string(L));
    Stage("deept.noise_reduction", L, -1);
    Cp("verify.layer_input", L, -1);
    Stage("deept.attention.qkv", L, -1);
    for (int H = 0; H < 2; ++H) {
      Stage("deept.attention.scores", L, H);
      Cp("verify.attention.scores", L, H);
      Stage("deept.attention.softmax", L, H);
      Stage("deept.attention.refine", L, H);
      Stage("deept.attention.output", L, H);
      Cp("verify.attention.output", L, H);
      Stage("deept.attention.head", L, H);
    }
    Stage("deept.attention.proj_norm", L, -1);
    Stage("deept.ffn", L, -1);
    Cp("verify.layer_output", L, -1);
    Stage("deept.layer", L, -1);
  }
  Stage("deept.pooler", -1, -1);
  Cp("verify.logits", -1, -1);
  Stage("deept.propagate", -1, -1);
  EXPECT_EQ(Rec.Events, WantEvents);
  // since_ms is the stage time the ledger delivered since the previous
  // checkpoint, and total_ms the whole ledger: the outermost stage's
  // elapsed time.
  ASSERT_EQ(Rec.SinceAtCheckpoint.size(), Prof.Checkpoints.size());
  for (size_t I = 0; I < Prof.Checkpoints.size(); ++I)
    EXPECT_EQ(Prof.Checkpoints[I].SinceMs, Rec.SinceAtCheckpoint[I])
        << Prof.Checkpoints[I].Site;
  EXPECT_EQ(Prof.TotalMs, Rec.SelfSum);
  EXPECT_TRUE(Rec.SelfWithinElapsed);
  EXPECT_NEAR(Rec.SelfSum, Rec.LastElapsed, 1e-9 * Rec.LastElapsed);

  // The margin the observers saw is the returned one, and observation
  // leaves it bit-identical.
  EXPECT_EQ(Rec.MarginLo, M);
  VC.Observers.clear();
  EXPECT_EQ(verify::DeepTVerifier(S.Model, VC)
                .certifyMargin(S.input(0.05), S.Sent.Label),
            M);

  // A falsified margin is one run as well: far past the tiny model's
  // radius, the observer sees one begin ... end and the returned margin.
  Recording Far;
  VC.Observers = {&Far};
  double MFar = verify::DeepTVerifier(S.Model, VC)
                    .certifyMargin(S.input(5.0), S.Sent.Label);
  EXPECT_LE(MFar, 0.0);
  EXPECT_EQ(std::count(Far.Calls.begin(), Far.Calls.end(), "begin"), 1);
  EXPECT_EQ(std::count(Far.Calls.begin(), Far.Calls.end(), "end"), 1);
  EXPECT_EQ(Far.Calls.back(), "end");
  EXPECT_EQ(Far.MarginLo, MFar);
}

/// Completed trace spans by full name ("deept.layer[1]", ...).
std::map<std::string, size_t> traceSpanCounts() {
  support::JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(support::parseJson(support::Trace::toChromeJson(), Doc, &Err))
      << Err;
  std::map<std::string, size_t> Counts;
  if (const support::JsonValue *Events = Doc.find("traceEvents"))
    for (const support::JsonValue &E : Events->Items)
      ++Counts[E.find("name")->StringVal];
  return Counts;
}

/// Records the trace of its scope and switches tracing off on exit.
struct ScopedTracing {
  ScopedTracing() {
    support::Trace::clear();
    support::Trace::setEnabled(true);
  }
  ~ScopedTracing() {
    support::Trace::setEnabled(false);
    support::Trace::clear();
  }
};

TEST(Observer, ThrowingObserverStillEndsTheRun) {
  TinySetup S;
  Recording Rec;
  Rec.ThrowAtLayer = 1;
  verify::PrecisionProfile Prof;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Observers = {&Prof, &Rec};
  {
    ScopedTracing Tracing;
    EXPECT_THROW(verify::DeepTVerifier(S.Model, VC)
                     .certifyMargin(S.input(0.05), S.Sent.Label),
                 std::runtime_error);
    // The deadline path: onLayer(1) throws as layer 1's stage opens. The
    // stages it unwinds through close -- their spans complete and the
    // outermost one still reaches the ledger.
    std::map<std::string, size_t> Spans = traceSpanCounts();
    EXPECT_EQ(Spans["deept.layer[1]"], 1u);
    EXPECT_EQ(Spans["deept.propagate"], 1u);
  }
  ASSERT_GE(Rec.Events.size(), 3u);
  EXPECT_EQ(std::vector<std::string>(Rec.Events.end() - 3, Rec.Events.end()),
            (std::vector<std::string>{"stage:" + at("deept.layer", 0, -1),
                                      "layer1",
                                      "stage:" + at("deept.propagate", -1,
                                                    -1)}));
  EXPECT_TRUE(Rec.SessionDuringRun);
  ASSERT_FALSE(Rec.Calls.empty());
  EXPECT_EQ(Rec.Calls.back(), "end");
  EXPECT_EQ(std::count(Rec.Calls.begin(), Rec.Calls.end(), "margin"), 0);
  // The profile's thread-local provenance session left with the run.
  EXPECT_EQ(zono::SymbolProvenance::active(), nullptr);

  // Under a caller's session the aborted run hands back the caller's
  // group, and the next run's ledger starts from an empty stage stack.
  {
    zono::ProvenanceSession Outer;
    Outer.provenance().pushGroup("outer");
    uint32_t Before = Outer.provenance().currentGroup();
    Recording Again;
    Again.ThrowAtLayer = 1;
    VC.Observers = {&Again};
    EXPECT_THROW(verify::DeepTVerifier(S.Model, VC)
                     .certifyMargin(S.input(0.05), S.Sent.Label),
                 std::runtime_error);
    EXPECT_EQ(Outer.provenance().currentGroup(), Before);
  }
  Recording After;
  VC.Observers = {&After};
  verify::DeepTVerifier(S.Model, VC).certifyMargin(S.input(0.05),
                                                   S.Sent.Label);
  ASSERT_FALSE(After.Events.empty());
  EXPECT_EQ(After.Events.front(), "layer0");
  EXPECT_EQ(After.Events.back(), "stage:" + at("deept.propagate", -1, -1));
  EXPECT_NEAR(After.SelfSum, After.LastElapsed, 1e-9 * After.LastElapsed);

  // A throwing onRunBegin ends the run as well, after the profile ahead
  // of it in the list already installed its session.
  Recording Early;
  Early.ThrowOnBegin = true;
  verify::PrecisionProfile EarlyProf;
  VC.Observers = {&EarlyProf, &Early};
  EXPECT_THROW(verify::DeepTVerifier(S.Model, VC)
                   .certifyMargin(S.input(0.05), S.Sent.Label),
               std::runtime_error);
  EXPECT_EQ(Early.Calls, (std::vector<std::string>{"begin", "end"}));
  EXPECT_EQ(zono::SymbolProvenance::active(), nullptr);
}

nn::FeedForwardNet tinyNet() {
  support::Rng Rng(0xfeed);
  return nn::FeedForwardNet::init({6, 10, 8, 2}, Rng);
}

TEST(Observer, FeedForwardEmitsInputPlusOneCheckpointPerLayer) {
  nn::FeedForwardNet Net = tinyNet();
  Matrix X(1, 6);
  for (size_t C = 0; C < 6; ++C)
    X.at(0, C) = 0.1 * static_cast<double>(C + 1);
  Recording Rec;
  verify::PrecisionProfile Prof;
  double M = verify::feedForwardMargin(
      Net, Zonotope::lpBall(X, Matrix::InfNorm, 1e-3), Net.classify(X),
      {&Rec, &Prof});
  EXPECT_STREQ(Rec.Info.Kind, "ffn");
  EXPECT_EQ(Rec.Info.Layers, 3u);
  EXPECT_EQ(Rec.Info.Embed, 6u);
  EXPECT_EQ(Rec.Info.Heads, 0u);
  std::vector<std::string> Want = {
      "begin",  "cp:ffn.input",        "layer0", "cp:ffn.layer_output",
      "layer1", "cp:ffn.layer_output", "layer2", "cp:ffn.layer_output",
      "margin", "end"};
  EXPECT_EQ(Rec.Calls, Want);
  std::vector<Site> WantSites = {{"ffn.input", -1, -1},
                                 {"ffn.layer_output", 0, -1},
                                 {"ffn.layer_output", 1, -1},
                                 {"ffn.layer_output", 2, -1}};
  EXPECT_EQ(Rec.Sites, WantSites);
  EXPECT_EQ(Rec.MarginLo, M);
  // Each layer is one stage inside the run's "ffn.propagate" stage.
  std::vector<std::string> WantEvents = {"cp:" + at("ffn.input", -1, -1)};
  for (int L = 0; L < 3; ++L) {
    WantEvents.push_back("layer" + std::to_string(L));
    WantEvents.push_back("cp:" + at("ffn.layer_output", L, -1));
    WantEvents.push_back("stage:" + at("ffn.layer", L, -1));
  }
  WantEvents.push_back("stage:" + at("ffn.propagate", -1, -1));
  EXPECT_EQ(Rec.Events, WantEvents);
  ASSERT_EQ(Rec.SinceAtCheckpoint.size(), Prof.Checkpoints.size());
  for (size_t I = 0; I < Prof.Checkpoints.size(); ++I)
    EXPECT_EQ(Prof.Checkpoints[I].SinceMs, Rec.SinceAtCheckpoint[I]);
  EXPECT_EQ(Prof.TotalMs, Rec.SelfSum);
  EXPECT_TRUE(Rec.SelfWithinElapsed);
  EXPECT_NEAR(Rec.SelfSum, Rec.LastElapsed, 1e-9 * Rec.LastElapsed);
}

TEST(Observer, NanFeedForwardInputIsUnsoundAtTheInput) {
  nn::FeedForwardNet Net = tinyNet();
  Matrix X(1, 6);
  X.at(0, 2) = std::numeric_limits<double>::quiet_NaN();
  Recording Rec;
  try {
    verify::feedForwardMargin(Net, Zonotope::lpBall(X, 2.0, 1e-3), 0,
                              {&Rec});
    FAIL() << "a NaN-centred input must not produce a margin";
  } catch (const support::Error &E) {
    EXPECT_EQ(E.code(), support::ErrorCode::UnsoundAbstraction);
    EXPECT_EQ(E.site(), "ffn.input");
  }
  std::vector<std::string> Want = {"begin", "cp:ffn.input", "end"};
  EXPECT_EQ(Rec.Calls, Want);
}

/// Reads the provenance groups the run interned, while the profile ahead
/// of it in the list still has its session installed.
struct GroupNames : verify::Observer {
  std::vector<std::string> Names;
  void onMargin(const Zonotope &, size_t, double, double) override {
    Names = zono::SymbolProvenance::active()->groupNames();
  }
};

// perfbench/bench.cpp reads per-stage times by trace span name and
// reports a renamed span as 0 ms; these are its names.
TEST(StageLedger, PerfbenchSpanNamesAndAttributionGroupsArePinned) {
  TinySetup S;
  verify::PrecisionProfile Prof;
  GroupNames Groups;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Observers = {&Prof, &Groups};
  std::map<std::string, size_t> Spans;
  {
    ScopedTracing Tracing;
    verify::DeepTVerifier(S.Model, VC).certifyMargin(S.input(0.05),
                                                     S.Sent.Label);
    Spans = traceSpanCounts();
  }
  const size_t Layers = 2, Heads = 2;
  const std::pair<const char *, size_t> Want[] = {
      // The nine stage spans.
      {"deept.noise_reduction", Layers},
      {"deept.attention.qkv", Layers},
      {"deept.attention.scores", Layers * Heads},
      {"deept.attention.softmax", Layers * Heads},
      {"deept.attention.refine", Layers * Heads},
      {"deept.attention.output", Layers * Heads},
      {"deept.attention.proj_norm", Layers},
      {"deept.ffn", Layers},
      {"deept.pooler", 1},
      // The two spans read for their self time.
      {"deept.attention.head", Layers * Heads},
      {"deept.layer[0]", 1},
      {"deept.layer[1]", 1},
  };
  for (const auto &[Name, Count] : Want)
    EXPECT_EQ(Spans[Name], Count) << Name;

  std::vector<std::string> WantGroups = {"input"};
  for (size_t L = 0; L < Layers; ++L)
    for (const char *G : {"noise_reduction", "attention.scores", "softmax",
                          "attention.output", "layer_norm", "ffn"})
      WantGroups.push_back("layer" + std::to_string(L) + "." + G);
  WantGroups.push_back("pooler");
  EXPECT_EQ(Groups.Names, WantGroups);
}

/// Sums the self times of a run's stages.
struct SelfTimeSum : verify::Observer {
  double Ms = 0.0;
  void onStage(const char *, int, int, double, double SelfMs) override {
    Ms += SelfMs;
  }
};

TEST(StageLedger, SelfTimesAccountForTheWallTime) {
  nn::TransformerModel Model = testhelp::loadCachedModel("sst_m12");
  data::SyntheticCorpus Corpus(
      data::CorpusConfig::sstLike(Model.Config.EmbedDim));
  support::Rng Rng(2);
  data::Sentence Sent = Corpus.sampleSentence(Rng);
  SelfTimeSum Ledger;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 600;
  VC.Observers = {&Ledger};
  verify::DeepTVerifier V(Model, VC);
  Zonotope In =
      Zonotope::lpBallOnRow(Model.embed(Sent.Tokens), 0, 2.0, 0.02);
  testhelp::ScopedThreads T(1);
  auto Start = std::chrono::steady_clock::now();
  V.certifyMargin(In, Sent.Label);
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  EXPECT_GE(Ledger.Ms, 0.99 * WallMs) << Ledger.Ms << " of " << WallMs;
  EXPECT_LE(Ledger.Ms, WallMs) << Ledger.Ms << " of " << WallMs;
}

} // namespace
