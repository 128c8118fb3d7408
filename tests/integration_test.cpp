//===- tests/integration_test.cpp ------------------------------*- C++ -*-===//
//
// Cross-module integration tests: consistency between the verifiers, the
// attack, and the concrete model; determinism; degenerate configurations.
//
//===----------------------------------------------------------------------===//

#include "attack/Pgd.h"
#include "crown/CrownVerifier.h"
#include "nn/Serialize.h"
#include "nn/Train.h"
#include "support/Metrics.h"
#include "verify/DeepT.h"
#include "verify/RadiusSearch.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace deept;
using namespace deept::testhelp;
using tensor::Matrix;
using zono::Zonotope;

namespace {

struct Fixture {
  data::SyntheticCorpus Corpus;
  nn::TransformerModel Model;
  std::vector<data::Sentence> Test;

  Fixture() : Corpus(data::CorpusConfig::sstLike(16)) {
    support::Rng Rng(1100);
    nn::TransformerConfig C;
    C.MaxLen = 12;
    C.EmbedDim = 16;
    C.NumHeads = 2;
    C.HiddenDim = 16;
    C.NumLayers = 2;
    Model = nn::TransformerModel::init(C, Corpus.embeddings(), Rng);
    support::Rng DataRng(1101);
    auto Train = Corpus.sampleDataset(192, DataRng);
    Test = Corpus.sampleDataset(10, DataRng);
    nn::TrainOptions Opts;
    Opts.Steps = 100;
    Opts.BatchSize = 8;
    nn::trainTransformer(Model, Corpus, Train, Opts);
  }

  data::Sentence correctSentence() const {
    for (const data::Sentence &S : Test)
      if (Model.classify(S.Tokens) == S.Label)
        return S;
    return Test.front();
  }
};

const Fixture &fixture() {
  static Fixture F;
  return F;
}

} // namespace

TEST(Integration, CertificationIsMonotoneInRadius) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 300;
  verify::DeepTVerifier DeepT(F.Model, VC);
  crown::CrownVerifier BaF(F.Model);
  for (double P : {1.0, 2.0, Matrix::InfNorm}) {
    double R = verify::certifiedRadius([&](double Radius) {
      return DeepT.certifyLpBall(S.Tokens, 0, P, Radius, S.Label);
    });
    if (R > 0) {
      EXPECT_TRUE(DeepT.certifyLpBall(S.Tokens, 0, P, R * 0.5, S.Label));
      EXPECT_TRUE(DeepT.certifyLpBall(S.Tokens, 0, P, R * 0.1, S.Label));
    }
    double RB = verify::certifiedRadius([&](double Radius) {
      return BaF.certifyLpBall(S.Tokens, 0, P, Radius, S.Label);
    });
    if (RB > 0) {
      EXPECT_TRUE(BaF.certifyLpBall(S.Tokens, 0, P, RB * 0.5, S.Label));
    }
  }
}

TEST(Integration, AttackNeverSucceedsInsideDeepTCertifiedRegion) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 300;
  verify::DeepTVerifier DeepT(F.Model, VC);
  for (double P : {2.0, Matrix::InfNorm}) {
    double R = verify::certifiedRadius([&](double Radius) {
      return DeepT.certifyLpBall(S.Tokens, 0, P, Radius, S.Label);
    });
    if (R <= 0)
      continue;
    attack::AttackOptions AO;
    AO.Steps = 40;
    AO.Restarts = 2;
    EXPECT_FALSE(attack::attackTransformerLpBall(F.Model, S.Tokens, 0, P,
                                                 0.95 * R, S.Label, AO))
        << "PGD found an adversarial example inside a certified region";
  }
}

TEST(Integration, AttackNeverSucceedsInsideCrownCertifiedRegion) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  for (crown::CrownMode Mode :
       {crown::CrownMode::BaF, crown::CrownMode::Backward}) {
    crown::CrownConfig Cfg;
    Cfg.Mode = Mode;
    crown::CrownVerifier V(F.Model, Cfg);
    double R = verify::certifiedRadius([&](double Radius) {
      return V.certifyLpBall(S.Tokens, 0, 2.0, Radius, S.Label);
    });
    if (R <= 0)
      continue;
    attack::AttackOptions AO;
    AO.Steps = 40;
    AO.Restarts = 2;
    EXPECT_FALSE(attack::attackTransformerLpBall(F.Model, S.Tokens, 0, 2.0,
                                                 0.95 * R, S.Label, AO));
  }
}

TEST(Integration, VerifiersAreDeterministic) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 300;
  verify::DeepTVerifier DeepT(F.Model, VC);
  Zonotope In =
      Zonotope::lpBallOnRow(F.Model.embed(S.Tokens), 0, 2.0, 0.02);
  double M1 = DeepT.certifyMargin(In, S.Label);
  double M2 = DeepT.certifyMargin(In, S.Label);
  EXPECT_DOUBLE_EQ(M1, M2);

  crown::CrownVerifier BaF(F.Model);
  double C1 = BaF.certifyMarginLpBall(S.Tokens, 0, 2.0, 0.02, S.Label)
                  .MarginLowerBound;
  double C2 = BaF.certifyMarginLpBall(S.Tokens, 0, 2.0, 0.02, S.Label)
                  .MarginLowerBound;
  EXPECT_DOUBLE_EQ(C1, C2);
}

TEST(Integration, ZeroRadiusMatchesConcreteDecision) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  Matrix Logits = F.Model.forwardEmbeddings(F.Model.embed(S.Tokens));
  double ConcreteMargin =
      Logits.at(0, S.Label) - Logits.at(0, 1 - S.Label);

  // CROWN at radius zero: relaxations degenerate to constants, so the
  // margin bound equals the concrete margin (up to numeric noise).
  crown::CrownConfig Cfg;
  Cfg.Mode = crown::CrownMode::Backward;
  double CrownMargin =
      crown::CrownVerifier(F.Model, Cfg)
          .certifyMarginLpBall(S.Tokens, 0, 2.0, 0.0, S.Label)
          .MarginLowerBound;
  EXPECT_NEAR(CrownMargin, ConcreteMargin, 1e-6);

  // DeepT at a vanishing radius is also near-exact.
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 300;
  Zonotope In =
      Zonotope::lpBallOnRow(F.Model.embed(S.Tokens), 0, 2.0, 1e-12);
  double DeepTMargin =
      verify::DeepTVerifier(F.Model, VC).certifyMargin(In, S.Label);
  EXPECT_NEAR(DeepTMargin, ConcreteMargin, 1e-4);
}

TEST(Integration, SynonymFreeSentenceBoxIsAPoint) {
  // A sentence whose words have no synonyms yields a zero-width box; the
  // T2 certificate then reduces to the concrete decision.
  const Fixture &F = fixture();
  data::Sentence S;
  for (size_t W = 0; W < F.Corpus.vocabSize() && S.Tokens.size() < 4; ++W)
    if (F.Corpus.synonymsOf(W).empty())
      S.Tokens.push_back(W);
  if (S.Tokens.size() < 2)
    GTEST_SKIP() << "corpus has too few synonym-free words";
  size_t Pred = F.Model.classify(S.Tokens);
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 300;
  verify::DeepTVerifier DeepT(F.Model, VC);
  Zonotope Box = DeepT.synonymBox(F.Corpus, S);
  EXPECT_EQ(Box.numEps(), 0u);
  EXPECT_TRUE(DeepT.certifySynonymBox(F.Corpus, S, Pred));
}

TEST(Integration, NoiseReductionBudgetZeroDisablesReduction) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  verify::VerifierConfig NoRed;
  NoRed.NoiseReductionBudget = 0;
  verify::DeepTVerifier V(F.Model, NoRed);
  Zonotope In =
      Zonotope::lpBallOnRow(F.Model.embed(S.Tokens), 0, 2.0, 0.01);
  support::Metrics &M = support::Metrics::global();
  M.reset();
  V.propagate(In);
  // Without reduction the peak symbol count exceeds any per-layer budget
  // we would normally use on this network.
  EXPECT_GT(M.gaugeValue("verify.propagate.peak_eps_symbols"), 500.0);
}

TEST(Integration, SerializeRejectsCorruptFiles) {
  std::string Path = ::testing::TempDir() + "/deept_corrupt.dptm";
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const char Garbage[] = "this is not a model file at all";
  std::fwrite(Garbage, 1, sizeof(Garbage), F);
  std::fclose(F);
  nn::TransformerModel M;
  EXPECT_FALSE(nn::loadModel(Path, M));
  EXPECT_FALSE(nn::loadModel(Path + ".does_not_exist", M));
  std::remove(Path.c_str());
}

TEST(Integration, DualNormOrdersBothSoundAndClose) {
  const Fixture &F = fixture();
  data::Sentence S = F.correctSentence();
  Matrix X = F.Model.embed(S.Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, 0, 1.0, 0.05);
  verify::VerifierConfig A;
  A.NoiseReductionBudget = 300;
  A.Order = zono::DualNormOrder::InfFirst;
  verify::VerifierConfig B = A;
  B.Order = zono::DualNormOrder::LpFirst;
  double MA = verify::DeepTVerifier(F.Model, A).certifyMargin(In, S.Label);
  double MB = verify::DeepTVerifier(F.Model, B).certifyMargin(In, S.Label);
  // Both are sound lower bounds of the same concrete minimum, and the
  // orders differ only in the Eq. 5 cascade, so they stay close.
  support::Rng Rng(1102);
  for (int I = 0; I < 20; ++I) {
    Matrix L = F.Model.forwardEmbeddings(In.sample(Rng));
    double Concrete = L.at(0, S.Label) - L.at(0, 1 - S.Label);
    EXPECT_GE(Concrete, MA - 1e-6);
    EXPECT_GE(Concrete, MB - 1e-6);
  }
  EXPECT_LT(std::fabs(MA - MB), 0.5 * (std::fabs(MA) + std::fabs(MB)) + 1e-6);
}
