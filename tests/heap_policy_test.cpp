//===- tests/heap_policy_test.cpp - Process heap policy --------*- C++ -*-===//
//
// Regression test of the heap policy set in tensor/Matrix.cpp (DESIGN.md
// "Heap policy"): once a radius probe has run, the next probe of the same
// shape must reuse the resident heap instead of faulting its coefficient
// planes in from the kernel again.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "verify/DeepT.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

using namespace deept;
using testhelp::ScopedThreads;

// The policy is glibc mallopt; the sanitizer allocators ignore it.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) &&                   \
    !defined(__SANITIZE_THREAD__)
#define DEEPT_HEAP_POLICY_TESTABLE 1
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef DEEPT_HEAP_POLICY_TESTABLE
#endif
#endif
#endif

/// A DeepT-Fast probe on cached sst_m12 at a fixed eps, after two warm-up
/// probes, must stay under 500 minor page faults. Without the policy
/// glibc trims the freed planes back to the kernel between probes and
/// this probe takes about 29k faults.
TEST(HeapPolicy, SteadyStateProbeDoesNotRefaultTheHeap) {
#ifndef DEEPT_HEAP_POLICY_TESTABLE
  GTEST_SKIP() << "heap policy is glibc-only and ignored under sanitizers";
#else
  nn::TransformerModel Model = testhelp::loadCachedModel("sst_m12");
  // RUSAGE_THREAD counts the calling thread only: run the probe there.
  ScopedThreads T(1);

  data::SyntheticCorpus Corpus(
      data::CorpusConfig::sstLike(Model.Config.EmbedDim));
  support::Rng Rng(2);
  data::Sentence S = Corpus.sampleSentence(Rng);
  tensor::Matrix Emb = Model.embed(S.Tokens);
  verify::VerifierConfig VC;
  VC.Method = zono::DotMethod::Fast;
  VC.NoiseReductionBudget = 600;
  verify::DeepTVerifier V(Model, VC);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, 2.0, 0.02);

  double Warm1 = V.certifyMargin(In, S.Label);
  double Warm2 = V.certifyMargin(In, S.Label);
  struct rusage Before, After;
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &Before), 0);
  double Margin = V.certifyMargin(In, S.Label);
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &After), 0);
  long Faults = After.ru_minflt - Before.ru_minflt;

  EXPECT_EQ(Margin, Warm1);
  EXPECT_EQ(Margin, Warm2);
  EXPECT_LT(Faults, 500) << "steady-state probe faulted its heap back in";
#endif
}
