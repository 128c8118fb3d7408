//===- tests/radius_search_test.cpp - Certified radius search --*- C++ -*-===//
//
// Tests of verify::certifiedRadius: bracketing invariants against
// synthetic monotone predicates (the returned radius is sound -- never
// above the true threshold -- and tight to the bisection resolution),
// the degenerate always-false / always-true cases, and determinism of
// the search over a real verifier at several thread counts.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "verify/DeepT.h"
#include "verify/RadiusSearch.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace deept;
using testhelp::ScopedThreads;
using tensor::Matrix;
using verify::RadiusSearchOptions;
using verify::certifiedRadius;

namespace {

TEST(RadiusSearch, RecoversMonotoneThreshold) {
  // For a monotone predicate "r <= T" the search must return a radius
  // that is certified (<= T) and within the bisection resolution of T.
  RadiusSearchOptions Opts;
  Opts.InitRadius = 0.01;
  Opts.MaxRadius = 64.0;
  Opts.BisectSteps = 20;
  for (double T : {0.004, 0.01, 0.37, 1.0, 1.7, 23.0}) {
    std::vector<double> Probes;
    double R = certifiedRadius(
        [&](double Radius) {
          Probes.push_back(Radius);
          return Radius <= T;
        },
        Opts);
    EXPECT_LE(R, T) << "unsound: returned radius above the threshold";
    EXPECT_NEAR(R, T, T * 1e-3) << "loose bracket for T=" << T;
    // Every probe stays inside the configured range.
    for (double P : Probes) {
      EXPECT_GE(P, Opts.MinRadius * 0.25);
      EXPECT_LE(P, Opts.MaxRadius);
    }
    // The returned radius was actually certified by a probe.
    EXPECT_NE(std::find(Probes.begin(), Probes.end(), R), Probes.end());
  }
}

TEST(RadiusSearch, AlwaysFalseReturnsZero) {
  size_t Calls = 0;
  double R = certifiedRadius([&](double) {
    ++Calls;
    return false;
  });
  EXPECT_EQ(R, 0.0);
  EXPECT_GT(Calls, 0u);
}

TEST(RadiusSearch, AlwaysTrueCapsAtMaxRadius) {
  RadiusSearchOptions Opts;
  Opts.InitRadius = 0.5;
  Opts.MaxRadius = 4.0;
  double R = certifiedRadius([](double) { return true; }, Opts);
  EXPECT_EQ(R, Opts.MaxRadius);
}

TEST(RadiusSearch, InitAtMaxRadiusDegenerateRange) {
  RadiusSearchOptions Opts;
  Opts.InitRadius = 2.0;
  Opts.MaxRadius = 2.0;
  EXPECT_EQ(certifiedRadius([](double) { return true; }, Opts), 2.0);
  EXPECT_EQ(certifiedRadius([](double) { return false; }, Opts), 0.0);
}

TEST(RadiusSearch, ShrinkPhaseFindsSmallThresholds) {
  // Thresholds far below InitRadius exercise the shrink-by-4 phase.
  RadiusSearchOptions Opts;
  Opts.InitRadius = 1.0;
  Opts.BisectSteps = 20;
  double T = 1e-4;
  double R = certifiedRadius([&](double Radius) { return Radius <= T; },
                             Opts);
  EXPECT_LE(R, T);
  EXPECT_GT(R, 0.0);
  EXPECT_NEAR(R, T, T * 1e-2);
}

TEST(RadiusSearch, DeterministicOverRealVerifierAcrossThreadCounts) {
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  nn::TransformerConfig Cfg;
  Cfg.MaxLen = 16;
  Cfg.EmbedDim = 16;
  Cfg.NumHeads = 2;
  Cfg.HiddenDim = 16;
  Cfg.NumLayers = 2;
  support::Rng Rng(0x5eed);
  nn::TransformerModel Model =
      nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);
  support::Rng SentRng(7);
  data::Sentence S = Corpus.sampleSentence(SentRng);
  Matrix Emb = Model.embed(S.Tokens);

  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  verify::DeepTVerifier V(Model, VC);
  RadiusSearchOptions Opts;
  Opts.InitRadius = 0.05;
  Opts.BisectSteps = 3;
  Opts.MaxRadius = 8.0;
  auto Certify = [&](double Radius) {
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, 2.0, Radius);
    return V.certifyMargin(In, S.Label) > 0.0;
  };

  double R1;
  {
    ScopedThreads T(1);
    R1 = certifiedRadius(Certify, Opts);
  }
  for (size_t Threads : {2u, 8u}) {
    ScopedThreads T(Threads);
    EXPECT_EQ(R1, certifiedRadius(Certify, Opts))
        << "certified radius differs at " << Threads << " threads";
  }
}

} // namespace
