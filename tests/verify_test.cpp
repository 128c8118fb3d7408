//===- tests/verify_test.cpp ----------------------------------*- C++ -*-===//
//
// End-to-end tests of the DeepT verifier: soundness against concrete
// executions, the precision ordering of the verifier family, and the
// certified-radius machinery.
//
//===----------------------------------------------------------------------===//

#include "verify/DeepT.h"
#include "verify/FeedForwardVerifier.h"
#include "verify/RadiusSearch.h"

#include "attack/Enumeration.h"
#include "nn/Train.h"
#include "support/Metrics.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace deept;
using namespace deept::verify;
using namespace deept::testhelp;
using tensor::Matrix;
using zono::Zonotope;

namespace {

struct Fixture {
  data::SyntheticCorpus Corpus;
  nn::TransformerModel Model;       // paper-default layer norm
  nn::TransformerModel ModelStdLn;  // standard layer norm variant
  std::vector<data::Sentence> Test;

  Fixture() : Corpus(data::CorpusConfig::sstLike(16)) {
    support::Rng Rng(77);
    nn::TransformerConfig C;
    C.MaxLen = 12;
    C.EmbedDim = 16;
    C.NumHeads = 2;
    C.HiddenDim = 16;
    C.NumLayers = 2;
    Model = nn::TransformerModel::init(C, Corpus.embeddings(), Rng);
    C.LayerNormStdDiv = true;
    ModelStdLn = nn::TransformerModel::init(C, Corpus.embeddings(), Rng);

    support::Rng DataRng(78);
    auto Train = Corpus.sampleDataset(256, DataRng);
    Test = Corpus.sampleDataset(24, DataRng);
    nn::TrainOptions Opts;
    Opts.Steps = 120;
    Opts.BatchSize = 8;
    nn::trainTransformer(Model, Corpus, Train, Opts);
    nn::trainTransformer(ModelStdLn, Corpus, Train, Opts);
  }
};

const Fixture &fixture() {
  static Fixture F;
  return F;
}

VerifierConfig fastConfig() {
  VerifierConfig C;
  C.NoiseReductionBudget = 400;
  return C;
}

const double Norms[] = {1.0, 2.0, Matrix::InfNorm};

class VerifyNormTest : public ::testing::TestWithParam<double> {};

} // namespace

TEST_P(VerifyNormTest, PropagationSoundOnSamples) {
  double P = GetParam();
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  support::Rng Rng(500);
  for (int Case = 0; Case < 3; ++Case) {
    const data::Sentence &S = F.Test[Case];
    Matrix X = F.Model.embed(S.Tokens);
    Zonotope In = Zonotope::lpBallOnRow(X, Case % S.Tokens.size(), P, 0.05);
    Zonotope Logits = V.propagate(In);
    Matrix Lo, Hi;
    Logits.bounds(Lo, Hi);
    for (int I = 0; I < 25; ++I) {
      Matrix XP = In.sample(Rng, I % 2 == 0);
      Matrix Concrete = F.Model.forwardEmbeddings(XP);
      EXPECT_TRUE(withinBounds(Concrete, Lo, Hi, 1e-6));
    }
  }
}

TEST_P(VerifyNormTest, MarginLowerBoundsConcreteMargins) {
  double P = GetParam();
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  support::Rng Rng(501);
  const data::Sentence &S = F.Test[0];
  Matrix X = F.Model.embed(S.Tokens);
  size_t Pred = F.Model.forwardEmbeddings(X).argmax();
  Zonotope In = Zonotope::lpBallOnRow(X, 1, P, 0.03);
  double Bound = V.certifyMargin(In, Pred);
  for (int I = 0; I < 30; ++I) {
    Matrix XP = In.sample(Rng, I % 2 == 0);
    Matrix L = F.Model.forwardEmbeddings(XP);
    double Concrete = L.at(0, Pred) - L.at(0, 1 - Pred);
    EXPECT_GE(Concrete, Bound - 1e-6);
  }
}

TEST(Verify, TinyRadiusGivesTightLogits) {
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  const data::Sentence &S = F.Test[1];
  Matrix X = F.Model.embed(S.Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, 0, 2.0, 1e-9);
  Zonotope Logits = V.propagate(In);
  Matrix Lo, Hi;
  Logits.bounds(Lo, Hi);
  Matrix Concrete = F.Model.forwardEmbeddings(X);
  EXPECT_TRUE(withinBounds(Concrete, Lo, Hi, 1e-9));
  for (size_t I = 0; I < 2; ++I)
    EXPECT_LT(Hi.flat(I) - Lo.flat(I), 1e-4)
        << "abstraction should be near-exact at a near-point input";
}

TEST(Verify, StdLayerNormPathSound) {
  const Fixture &F = fixture();
  DeepTVerifier V(F.ModelStdLn, fastConfig());
  support::Rng Rng(502);
  const data::Sentence &S = F.Test[2];
  Matrix X = F.ModelStdLn.embed(S.Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, 0, 2.0, 0.02);
  Zonotope Logits = V.propagate(In);
  Matrix Lo, Hi;
  Logits.bounds(Lo, Hi);
  for (int I = 0; I < 25; ++I) {
    Matrix XP = In.sample(Rng, I % 2 == 0);
    Matrix Concrete = F.ModelStdLn.forwardEmbeddings(XP);
    EXPECT_TRUE(withinBounds(Concrete, Lo, Hi, 1e-6));
  }
}

TEST(Verify, PreciseAtLeastAsTightAsFastForLinf) {
  const Fixture &F = fixture();
  VerifierConfig Fast = fastConfig();
  VerifierConfig Precise = fastConfig();
  Precise.Method = zono::DotMethod::Precise;
  const data::Sentence &S = F.Test[3];
  Matrix X = F.Model.embed(S.Tokens);
  size_t Pred = F.Model.forwardEmbeddings(X).argmax();
  Zonotope In = Zonotope::lpBallOnRow(X, 1, Matrix::InfNorm, 0.01);
  double MF = DeepTVerifier(F.Model, Fast).certifyMargin(In, Pred);
  double MP = DeepTVerifier(F.Model, Precise).certifyMargin(In, Pred);
  // The Eq. 6 eps-eps bound dominates Eq. 5, but noise reduction after the
  // first layer can reorder things slightly; allow a small slack.
  EXPECT_GE(MP, MF - 1e-6);
}

TEST(Verify, RefinementImprovesAverageMargin) {
  const Fixture &F = fixture();
  VerifierConfig On = fastConfig();
  VerifierConfig Off = fastConfig();
  Off.SoftmaxSumRefinement = false;
  double SumOn = 0, SumOff = 0;
  for (int Case = 0; Case < 3; ++Case) {
    const data::Sentence &S = F.Test[Case];
    Matrix X = F.Model.embed(S.Tokens);
    size_t Pred = F.Model.forwardEmbeddings(X).argmax();
    Zonotope In = Zonotope::lpBallOnRow(X, 0, 2.0, 0.02);
    SumOn += DeepTVerifier(F.Model, On).certifyMargin(In, Pred);
    SumOff += DeepTVerifier(F.Model, Off).certifyMargin(In, Pred);
  }
  EXPECT_GE(SumOn, SumOff - 1e-9);
}

TEST(Verify, LargerReductionBudgetIsMorePreciseOnAverage) {
  const Fixture &F = fixture();
  VerifierConfig Big = fastConfig();
  Big.NoiseReductionBudget = 2000;
  VerifierConfig Small = fastConfig();
  Small.NoiseReductionBudget = 40;
  double SumBig = 0, SumSmall = 0;
  for (int Case = 0; Case < 3; ++Case) {
    const data::Sentence &S = F.Test[Case];
    Matrix X = F.Model.embed(S.Tokens);
    size_t Pred = F.Model.forwardEmbeddings(X).argmax();
    Zonotope In = Zonotope::lpBallOnRow(X, 0, 2.0, 0.02);
    SumBig += DeepTVerifier(F.Model, Big).certifyMargin(In, Pred);
    SumSmall += DeepTVerifier(F.Model, Small).certifyMargin(In, Pred);
  }
  EXPECT_GE(SumBig, SumSmall - 1e-9);
}

TEST(Verify, CombinedVerifierSoundAndBetween) {
  const Fixture &F = fixture();
  VerifierConfig Combined = fastConfig();
  Combined.PreciseLastLayerOnly = true;
  DeepTVerifier V(F.Model, Combined);
  support::Rng Rng(503);
  const data::Sentence &S = F.Test[4];
  Matrix X = F.Model.embed(S.Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, 0, Matrix::InfNorm, 0.02);
  Zonotope Logits = V.propagate(In);
  Matrix Lo, Hi;
  Logits.bounds(Lo, Hi);
  for (int I = 0; I < 20; ++I)
    EXPECT_TRUE(withinBounds(F.Model.forwardEmbeddings(In.sample(Rng)), Lo,
                             Hi, 1e-6));
}

TEST(Verify, PropagateMirrorsPeaksIntoRegistry) {
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  const data::Sentence &S = F.Test[0];
  Zonotope In =
      Zonotope::lpBallOnRow(F.Model.embed(S.Tokens), 0, 2.0, 0.01);
  support::Metrics &M = support::Metrics::global();
  M.reset();
  V.propagate(In);
  EXPECT_GT(M.gaugeValue("verify.propagate.peak_eps_symbols"), 0.0);
  EXPECT_GT(M.gaugeValue("verify.propagate.peak_coeff_bytes"), 0.0);
  EXPECT_DOUBLE_EQ(M.counterValue("verify.propagate.calls"), 1.0);
  // Per-layer instrumentation fires once per transformer layer.
  EXPECT_EQ(M.histogramStats("verify.layer.eps_created").Count,
            F.Model.Layers.size());
  EXPECT_EQ(M.histogramStats("verify.layer.peak_eps_symbols").Count,
            F.Model.Layers.size());
  // Non-affine transformers went through appendFreshEps.
  EXPECT_GT(M.counterValue("zono.eps_symbols.created"), 0.0);
  // A budget below the fixture's eps count forces reduction, which the
  // registry must see.
  VerifierConfig Small = fastConfig();
  Small.NoiseReductionBudget = 40;
  DeepTVerifier(F.Model, Small).propagate(In);
  EXPECT_GT(M.counterValue("zono.eps_symbols.reduced"), 0.0);
}

TEST(Verify, StatsSurviveCertifyMarginEntryPoint) {
  // Every entry point records the run in the registry, not just direct
  // propagate() calls.
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  const data::Sentence &S = F.Test[0];
  Matrix X = F.Model.embed(S.Tokens);
  size_t Pred = F.Model.forwardEmbeddings(X).argmax();
  Zonotope In = Zonotope::lpBallOnRow(X, 0, 2.0, 0.01);
  support::Metrics &M = support::Metrics::global();
  M.reset();
  V.certifyMargin(In, Pred);
  EXPECT_GT(M.gaugeValue("verify.propagate.peak_eps_symbols"), 0.0);
  EXPECT_GT(M.gaugeValue("verify.propagate.peak_coeff_bytes"), 0.0);
  EXPECT_DOUBLE_EQ(M.counterValue("verify.propagate.calls"), 1.0);
  EXPECT_GT(M.counterValue("zono.dot.fast.calls"), 0.0);
}

//===----------------------------------------------------------------------===//
// Threat model T2: synonym boxes vs enumeration
//===----------------------------------------------------------------------===//

TEST(Verify, SynonymBoxContainsAllSubstitutions) {
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  support::Rng Rng(504);
  data::Sentence S = F.Test[5];
  Zonotope Box = V.synonymBox(F.Corpus, S);
  Matrix Lo, Hi;
  Box.bounds(Lo, Hi);
  // Every synonym substitution's embedding matrix lies in the box.
  for (int Trial = 0; Trial < 20; ++Trial) {
    data::Sentence Sub = S;
    F.Corpus.swapSynonyms(Sub, 0.7, Rng);
    EXPECT_TRUE(withinBounds(F.Model.embed(Sub.Tokens), Lo, Hi, 1e-12));
  }
}

TEST(Verify, CertifiedSynonymRobustnessAgreesWithEnumeration) {
  // The central T2 soundness statement: if DeepT certifies a sentence, the
  // complete enumeration must find no adversarial synonym combination.
  const Fixture &F = fixture();
  DeepTVerifier V(F.Model, fastConfig());
  int Certified = 0;
  for (int Case = 0; Case < 8; ++Case) {
    const data::Sentence &S = F.Test[Case];
    if (F.Model.classify(S.Tokens) != S.Label)
      continue;
    bool Cert = V.certifySynonymBox(F.Corpus, S, S.Label);
    if (!Cert)
      continue;
    ++Certified;
    auto Enum = attack::enumerateSynonymAttack(F.Model, F.Corpus, S,
                                               S.Label, 1u << 16);
    EXPECT_TRUE(Enum.Robust)
        << "certified sentence " << Case << " has an adversarial synonym "
        << "combination: soundness violation";
  }
  // The fixture's robust-enough model should certify at least one case;
  // otherwise this test is vacuous.
  EXPECT_GT(Certified, 0);
}

//===----------------------------------------------------------------------===//
// Radius search and the feed-forward verifier
//===----------------------------------------------------------------------===//

TEST(RadiusSearch, FindsMonotoneThreshold) {
  auto Certify = [](double R) { return R <= 0.37; };
  double R = certifiedRadius(Certify);
  EXPECT_NEAR(R, 0.37, 0.01);
  EXPECT_LE(R, 0.37); // never overshoots: the result itself certifies
}

TEST(RadiusSearch, HandlesDegenerateCases) {
  EXPECT_DOUBLE_EQ(certifiedRadius([](double) { return false; }), 0.0);
  RadiusSearchOptions Opts;
  Opts.MaxRadius = 8.0;
  EXPECT_DOUBLE_EQ(certifiedRadius([](double) { return true; }, Opts), 8.0);
}

TEST(RadiusSearch, CountsCallsReasonably) {
  int Calls = 0;
  certifiedRadius([&](double R) {
    ++Calls;
    return R <= 0.2;
  });
  EXPECT_LT(Calls, 40);
}

TEST(FeedForwardVerifier, ExactForLinearNetwork) {
  // Without hidden ReLUs, propagation is exact: the margin bound equals
  // the true minimum margin (center minus dual-norm of the row).
  support::Rng Rng(505);
  nn::FeedForwardNet Net = nn::FeedForwardNet::init({4, 2}, Rng);
  Matrix X = Matrix::randn(1, 4, Rng);
  Zonotope In = Zonotope::lpBall(X, 2.0, 0.1);
  double Bound = feedForwardMargin(Net, In, 0);
  // Concrete minimum: margin(x) = (W col0 - W col1) . x + (b0 - b1); over
  // an l2 ball the minimum is margin(center) - 0.1 * ||w||_2.
  Matrix W = Net.Weights[0];
  Matrix B = Net.Biases[0];
  double Center = B.at(0, 0) - B.at(0, 1);
  double NormSq = 0.0;
  for (size_t I = 0; I < 4; ++I) {
    double D = W.at(I, 0) - W.at(I, 1);
    Center += X.at(0, I) * D;
    NormSq += D * D;
  }
  EXPECT_NEAR(Bound, Center - 0.1 * std::sqrt(NormSq), 1e-9);
}

TEST(FeedForwardVerifier, SoundOnReluNetwork) {
  support::Rng Rng(506);
  nn::FeedForwardNet Net = nn::FeedForwardNet::init({6, 10, 5, 2}, Rng);
  Matrix X = Matrix::randn(1, 6, Rng);
  for (double P : Norms) {
    Zonotope In = Zonotope::lpBall(X, P, 0.15);
    Zonotope Logits = propagateFeedForward(Net, In);
    Matrix Lo, Hi;
    Logits.bounds(Lo, Hi);
    for (int I = 0; I < 40; ++I)
      EXPECT_TRUE(
          withinBounds(Net.forward(In.sample(Rng, I % 2 == 0)), Lo, Hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Norms, VerifyNormTest, ::testing::ValuesIn(Norms),
                         [](const ::testing::TestParamInfo<double> &Info) {
                           if (Info.param == 1.0)
                             return std::string("l1");
                           if (Info.param == 2.0)
                             return std::string("l2");
                           return std::string("linf");
                         });
