//===- tests/observer_test.cpp - Verifier observer contract ----*- C++ -*-===//
//
// The protocol both verifiers deliver to a verify::Observer (see
// verify/Observer.h): call order on DeepT and on the feed-forward
// verifier, one run per margin computation, onRunEnd on the exception
// path (with the profile's thread-local provenance session
// removed), and the shared soundness check at the first checkpoint.
//
//===----------------------------------------------------------------------===//

#include "data/SyntheticCorpus.h"
#include "nn/FeedForwardNet.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "verify/DeepT.h"
#include "verify/FeedForwardVerifier.h"
#include "verify/Observer.h"
#include "verify/Profile.h"
#include "zono/Provenance.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

/// Logs every hook as one string; optionally throws from onRunBegin or
/// onLayer.
struct Recording : verify::Observer {
  std::vector<std::string> Calls;
  std::vector<Site> Sites;
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
    SessionDuringRun = zono::SymbolProvenance::active() != nullptr;
    if (L == ThrowAtLayer)
      throw std::runtime_error("observer abort");
  }
  void onCheckpoint(const Zonotope &, const char *S, int Layer,
                    int Head) override {
    Calls.push_back(std::string("cp:") + S);
    Sites.push_back({S, Layer, Head});
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

TEST(Observer, ThrowingObserverStillEndsTheRun) {
  TinySetup S;
  Recording Rec;
  Rec.ThrowAtLayer = 1;
  verify::PrecisionProfile Prof;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Observers = {&Prof, &Rec};
  EXPECT_THROW(verify::DeepTVerifier(S.Model, VC)
                   .certifyMargin(S.input(0.05), S.Sent.Label),
               std::runtime_error);
  EXPECT_TRUE(Rec.SessionDuringRun);
  ASSERT_FALSE(Rec.Calls.empty());
  EXPECT_EQ(Rec.Calls.back(), "end");
  EXPECT_EQ(std::count(Rec.Calls.begin(), Rec.Calls.end(), "margin"), 0);
  // The profile's thread-local provenance session left with the run.
  EXPECT_EQ(zono::SymbolProvenance::active(), nullptr);

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
  double M = verify::feedForwardMargin(
      Net, Zonotope::lpBall(X, Matrix::InfNorm, 1e-3), Net.classify(X),
      {&Rec});
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

} // namespace
