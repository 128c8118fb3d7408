//===- tests/certificate_test.cpp - Proof certificate tests ----*- C++ -*-===//
//
// The certificate layer end to end: the producer (verify/Certificate)
// records runs that the independent checker (src/check) accepts; every
// tampered variant of the corrupted-certificate corpus is rejected with
// the right taxonomy code (StoreCorrupt for mangled artifacts,
// UnsoundAbstraction for derivations that do not replay) -- in the style
// of serialize_test.cpp's corrupted-model corpus. Also covers payload
// bit-identity across thread counts, the 1-ULP negative-path oracle, the
// scheduler's cert-dir artifacts, and the cert.write fault drill.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "check/CertCheck.h"
#include "check/Interval.h"
#include "data/SyntheticCorpus.h"
#include "nn/FeedForwardNet.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "support/Fp.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "verify/Certificate.h"
#include "verify/DeepT.h"
#include "verify/FeedForwardVerifier.h"
#include "verify/Scheduler.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace deept;
using support::ErrorCode;
using testhelp::ScopedThreads;
using tensor::Matrix;
using verify::CertificateBuilder;
using verify::CertificateData;

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
    // Certify against the model's own prediction so margins are
    // positive even for this untrained model.
    Sent.Label = Model.classify(Sent.Tokens);
  }
};

/// One recorded DeepT run on the tiny model (small eps, certified).
CertificateData recordedRun(const TinySetup &S, double Eps = 1e-3,
                            support::FpPrecision Precision =
                                support::FpPrecision::F64) {
  CertificateBuilder Cert;
  Cert.Data.Query = "test-q";
  Cert.Data.Norm = "l2";
  Cert.Data.P = 2.0;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Precision = Precision;
  VC.Observers = {&Cert};
  verify::DeepTVerifier V(S.Model, VC);
  Matrix X = S.Model.embed(S.Sent.Tokens);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, 0, 2.0, Eps);
  double M = V.certifyMargin(In, S.Sent.Label);
  EXPECT_GT(M, 0.0) << "tiny-model margin should certify at eps " << Eps;
  EXPECT_TRUE(Cert.Data.Margin.Valid);
  return Cert.Data;
}

/// Expects checkCertificate to throw with the given taxonomy code.
void expectReject(const std::string &Line, ErrorCode Want,
                  const char *What) {
  try {
    check::checkCertificate(Line);
    FAIL() << What << ": checker accepted a bad certificate";
  } catch (const support::Error &E) {
    EXPECT_EQ(E.code(), Want) << What << ": " << E.what();
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Interval core
//===----------------------------------------------------------------------===//

TEST(CertInterval, DirectedOpsEncloseRoundToNearest) {
  // 0.1 + 0.2 is inexact in binary64, so the directed results must
  // strictly bracket the round-to-nearest sum.
  double Rn = 0.1 + 0.2;
  EXPECT_LT(check::addDown(0.1, 0.2), check::addUp(0.1, 0.2));
  EXPECT_LE(check::addDown(0.1, 0.2), Rn);
  EXPECT_GE(check::addUp(0.1, 0.2), Rn);
  EXPECT_LE(check::mulDown(0.1, 0.1), 0.1 * 0.1);
  EXPECT_GE(check::mulUp(0.1, 0.1), 0.1 * 0.1);
  EXPECT_LE(check::sqrtDown(2.0), std::sqrt(2.0));
  EXPECT_GE(check::sqrtUp(2.0), std::sqrt(2.0));
  // Exact operations stay exact in both directions.
  EXPECT_EQ(check::addDown(1.0, 2.0), 3.0);
  EXPECT_EQ(check::addUp(1.0, 2.0), 3.0);
}

TEST(CertInterval, DualNormEnclosesKernelTrack) {
  // The enclosure must contain an ascending round-to-nearest
  // accumulation of the same terms (the producer's kernel order).
  std::vector<double> V;
  support::Rng Rng(42);
  for (int I = 0; I < 1000; ++I)
    V.push_back(Rng.uniform(-1.0, 1.0));
  double Sq = 0.0, Abs = 0.0, Max = 0.0;
  for (double X : V) {
    Sq += X * X;
    Abs += std::fabs(X);
    Max = std::max(Max, std::fabs(X));
  }
  check::Interval L2 = check::dualNormEnclosure(2.0, V);
  EXPECT_TRUE(L2.contains(std::sqrt(Sq)));
  check::Interval L1 = check::dualNormEnclosure(1.0, V);
  EXPECT_TRUE(L1.contains(Abs));
  check::Interval Linf = check::dualNormEnclosure(-1.0, V);
  EXPECT_EQ(Linf.Lo, Max);
  EXPECT_EQ(Linf.Hi, Max);
}

//===----------------------------------------------------------------------===//
// Producer -> checker round trips
//===----------------------------------------------------------------------===//

TEST(Certificate, DeepTRunReplays) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  check::CertificateSummary Sum =
      check::checkCertificate(Data.toJson());
  EXPECT_EQ(Sum.Query, "test-q");
  EXPECT_EQ(Sum.Kind, "deept");
  EXPECT_EQ(Sum.Precision, "f64");
  EXPECT_TRUE(Sum.Certified);
  EXPECT_GT(Sum.MarginLo, 0.0);
  EXPECT_EQ(Sum.Checkpoints.front().Site, "verify.layer_input");
  EXPECT_EQ(Sum.Checkpoints.back().Site, "verify.logits");
  // The digest is stable under re-checking the same artifact.
  EXPECT_EQ(check::semanticDigest(Sum),
            check::semanticDigest(check::checkCertificate(Data.toJson())));
}

TEST(Certificate, F32RunReplays) {
  TinySetup S;
  CertificateData Data = recordedRun(S, 1e-3, support::FpPrecision::F32);
  check::CertificateSummary Sum =
      check::checkCertificate(Data.toJson());
  // If the f32 run certified without escalation, the certificate records
  // the lifted single-precision norms; an escalated query records its
  // final f64 run instead. Either way the artifact must replay.
  EXPECT_EQ(Sum.Precision, Data.Precision);
  EXPECT_TRUE(Sum.Certified);
}

TEST(Certificate, FeedForwardRunReplays) {
  support::Rng Rng(0xfeed);
  nn::FeedForwardNet Net = nn::FeedForwardNet::init({6, 10, 8, 2}, Rng);
  Matrix X(1, 6);
  for (size_t C = 0; C < 6; ++C)
    X.at(0, C) = 0.1 * static_cast<double>(C + 1);
  size_t Label = Net.classify(X);
  CertificateBuilder Cert;
  Cert.Data.Query = "ffn-q";
  Cert.Data.Norm = "linf";
  Cert.Data.P = Matrix::InfNorm;
  bool Ok = verify::certifyFeedForwardLpBall(Net, X, Matrix::InfNorm, 1e-4,
                                             Label, {&Cert});
  ASSERT_TRUE(Ok);
  check::CertificateSummary Sum =
      check::checkCertificate(Cert.Data.toJson());
  EXPECT_EQ(Sum.Kind, "ffn");
  EXPECT_TRUE(Sum.Certified);
  EXPECT_EQ(Sum.Checkpoints.front().Site, "ffn.input");
  EXPECT_EQ(Sum.Checkpoints.back().Site, "ffn.layer_output");
  EXPECT_EQ(Sum.Checkpoints.size(), 4u); // input + 3 layers
}

TEST(Certificate, PayloadBitIdenticalAcrossThreadCounts) {
  TinySetup S;
  std::string P1, P4;
  {
    ScopedThreads T(1);
    P1 = recordedRun(S).payloadJson();
  }
  {
    ScopedThreads T(4);
    P4 = recordedRun(S).payloadJson();
  }
  // Same ISA, different thread counts: the payload (and hence its CRC)
  // must be byte-identical; only the envelope's threads field differs.
  EXPECT_EQ(P1, P4);
}

//===----------------------------------------------------------------------===//
// Corrupted-certificate corpus
//===----------------------------------------------------------------------===//

TEST(CertificateCorpus, TruncationRejected) {
  TinySetup S;
  std::string Line = recordedRun(S).toJson();
  // Every truncation point must be a typed StoreCorrupt, never a crash
  // or an acceptance.
  for (size_t Keep : {size_t(0), size_t(1), size_t(10), Line.size() / 2,
                      Line.size() - 1})
    expectReject(Line.substr(0, Keep), ErrorCode::StoreCorrupt,
                 "truncation");
}

TEST(CertificateCorpus, BitFlipInPayloadRejectedByCrc) {
  TinySetup S;
  std::string Line = recordedRun(S).toJson();
  size_t PayloadStart = Line.find("\"payload\":") + 10;
  ASSERT_LT(PayloadStart, Line.size());
  // Flip one bit in several CRC'd payload positions; whether the flip
  // still parses as JSON or not, the artifact must be StoreCorrupt.
  for (size_t Off : {size_t(5), size_t(100), (Line.size() - PayloadStart) / 2}) {
    std::string Bad = Line;
    Bad[PayloadStart + Off] ^= 0x01;
    expectReject(Bad, ErrorCode::StoreCorrupt, "payload bit flip");
  }
}

TEST(CertificateCorpus, TamperedAlphaNormRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // Shrink the recorded ||alpha||_q below the replayed enclosure. The
  // re-serialization recomputes a valid CRC, so only the replay can
  // catch this.
  Data.Margin.AlphaNorm *= 0.5;
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "shrunk alpha norm");
}

TEST(CertificateCorpus, TamperedMarginLoRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // A grossly inflated lower bound (the cheat that would fake a larger
  // certified margin) must not replay.
  Data.Margin.Lo = Data.Margin.Lo + 1.0;
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "inflated margin lo");
}

TEST(CertificateCorpus, FlippedVerdictRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  ASSERT_GT(Data.Margin.Lo, 0.0);
  Data.Margin.Certified = false; // lo > 0 says otherwise
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "flipped verdict");
}

TEST(CertificateCorpus, NonFiniteConcretizationRejected) {
  TinySetup S;
  {
    CertificateData Data = recordedRun(S);
    Data.Checkpoints[0].Center[0] =
        std::numeric_limits<double>::quiet_NaN();
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "NaN center");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.Margin.Lo = std::numeric_limits<double>::infinity();
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "infinite margin lo");
  }
}

TEST(CertificateCorpus, BookkeepingMismatchRejected) {
  TinySetup S;
  {
    CertificateData Data = recordedRun(S);
    Data.Margin.Alpha.pop_back(); // fewer coefficients than phi symbols
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "alpha length");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.Checkpoints[0].Site = "verify.bogus";
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "unknown site");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.InputLo[0] -= 1.0; // input box escapes the first checkpoint
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "input enclosure");
  }
}

TEST(CertificateCorpus, OneUlpShrinkBelowEnclosureRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // The negative-path oracle: place the margin lower bound exactly one
  // ULP ABOVE the upper end of the directed replay enclosure of
  // c - (na + nb). If the checker's replay were any looser, this would
  // slip through; it must be rejected.
  double UpperEnd = check::subUp(
      Data.Margin.Center,
      check::addDown(Data.Margin.AlphaNorm, Data.Margin.BetaNorm));
  ASSERT_GE(UpperEnd, Data.Margin.Lo); // sanity: honest value encloses
  Data.Margin.Lo = std::nextafter(
      UpperEnd, std::numeric_limits<double>::infinity());
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "1-ULP above enclosure");
  // And the same one ULP below the lower end.
  CertificateData Data2 = recordedRun(S);
  double LowerEnd = check::subDown(
      Data2.Margin.Center,
      check::addUp(Data2.Margin.AlphaNorm, Data2.Margin.BetaNorm));
  ASSERT_LE(LowerEnd, Data2.Margin.Lo);
  Data2.Margin.Lo = std::nextafter(
      LowerEnd, -std::numeric_limits<double>::infinity());
  expectReject(Data2.toJson(), ErrorCode::UnsoundAbstraction,
               "1-ULP below enclosure");
}

//===----------------------------------------------------------------------===//
// Scheduler integration
//===----------------------------------------------------------------------===//

namespace {

/// Minimal mkdir-p for the test's cert dir; removed entry by entry.
struct TempDir {
  std::string Path;
  explicit TempDir(std::string P) : Path(std::move(P)) {
    ::mkdir(Path.c_str(), 0755);
  }
};

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

verify::JobSpec tinyJob(const TinySetup &S, const char *Id, double Eps) {
  verify::JobSpec J;
  J.Id = Id;
  J.Tokens = S.Sent.Tokens;
  J.TrueClass = S.Sent.Label;
  J.Word = 0;
  J.P = 2.0;
  J.Epsilon = Eps;
  J.Method = verify::JobMethod::Fast;
  J.NoiseReductionBudget = 128;
  return J;
}

} // namespace

TEST(CertificateScheduler, CertDirHoldsReplayableArtifacts) {
  TinySetup S;
  TempDir Dir(::testing::TempDir() + "cert_sched_dir");
  verify::SchedulerOptions SO;
  SO.CertDir = Dir.Path;
  verify::JobQueue Q;
  Q.push(tinyJob(S, "a", 1e-3));
  Q.push(tinyJob(S, "b", 1e-3));
  verify::Scheduler Sched(S.Model, SO);
  std::vector<verify::JobResult> Results = Sched.run(Q);
  ASSERT_EQ(Results.size(), 2u);
  for (const verify::JobResult &R : Results) {
    ASSERT_TRUE(R.Certified) << R.Key;
    std::string Path = Dir.Path + "/cert-" + R.Key + ".json";
    std::string Line = readFileBytes(Path);
    ASSERT_FALSE(Line.empty()) << Path;
    check::CertificateSummary Sum = check::checkCertificate(Line);
    EXPECT_EQ(Sum.Query, R.Key);
    EXPECT_TRUE(Sum.Certified);
    std::remove(Path.c_str());
  }
  ::rmdir(Dir.Path.c_str());
}

TEST(CertificateScheduler, CertWriteFaultKeepsBatchRunning) {
  TinySetup S;
  TempDir Dir(::testing::TempDir() + "cert_fault_dir");
  verify::SchedulerOptions SO;
  SO.CertDir = Dir.Path;
  verify::JobQueue Q;
  Q.push(tinyJob(S, "fault-a", 1e-3));
  Q.push(tinyJob(S, "fault-b", 1e-3));
  double FailuresBefore =
      support::Metrics::global().counterValue("cert.write_failures");
  {
    ScopedThreads T(1); // deterministic: exactly the first write faults
    ASSERT_TRUE(support::fault::arm("cert.write:1:fail"));
    verify::Scheduler Sched(S.Model, SO);
    std::vector<verify::JobResult> Results = Sched.run(Q);
    support::fault::disarm();
    // The drill: the injected write fault must not fail any job.
    ASSERT_EQ(Results.size(), 2u);
    EXPECT_EQ(Results[0].Status, verify::JobStatus::Ok);
    EXPECT_EQ(Results[1].Status, verify::JobStatus::Ok);
    EXPECT_TRUE(Results[0].Certified);
    EXPECT_TRUE(Results[1].Certified);
  }
  EXPECT_EQ(support::Metrics::global().counterValue("cert.write_failures"),
            FailuresBefore + 1.0);
  // The faulted job has no artifact; the other one replays.
  EXPECT_TRUE(readFileBytes(Dir.Path + "/cert-fault-a.json").empty());
  std::string Line = readFileBytes(Dir.Path + "/cert-fault-b.json");
  ASSERT_FALSE(Line.empty());
  EXPECT_TRUE(check::checkCertificate(Line).Certified);
  std::remove((Dir.Path + "/cert-fault-a.json").c_str());
  std::remove((Dir.Path + "/cert-fault-b.json").c_str());
  ::rmdir(Dir.Path.c_str());
}
