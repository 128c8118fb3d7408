//===- tests/coordination_test.cpp - Multi-worker coordination -*- C++ -*-===//
//
// Tests of the coordination layer: the lease-file protocol of
// support/Lease (claim / renew / staleness / reclaim races), the
// verify::Worker driver (sharded runs converge bit-identically to a
// serial scheduler, crashed workers' leases are reclaimed and their
// shards finished by survivors), per-record CRC detection in the JSONL
// store, shard merging, and the scheduler's retry-with-backoff policy
// for transient failures (deterministic fault-injection drills).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Lease.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "verify/Coordination.h"
#include "verify/Scheduler.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace deept;
using support::Error;
using support::ErrorCode;
using support::Lease;
using tensor::Matrix;
using verify::CoordinationOptions;
using verify::JobMethod;
using verify::JobQueue;
using verify::JobResult;
using verify::JobSpec;
using verify::JobStatus;
using verify::MergeReport;
using verify::Scheduler;
using verify::SchedulerOptions;
using verify::Worker;
using verify::WorkerReport;
namespace fault = deept::support::fault;

using testhelp::ScopedThreads;

namespace {

/// Creates a test directory and removes it (with its flat contents) on
/// scope exit. The lease layout is flat, so one readdir pass suffices.
class TempDir {
public:
  explicit TempDir(std::string Path) : Path(std::move(Path)) {
    wipe();
    ::mkdir(this->Path.c_str(), 0755);
  }
  ~TempDir() {
    wipe();
    ::rmdir(Path.c_str());
  }
  const std::string &path() const { return Path; }

private:
  void wipe() {
    if (DIR *D = ::opendir(Path.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          std::remove((Path + "/" + Name).c_str());
      }
      ::closedir(D);
    }
  }
  std::string Path;
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

/// Arms a spec for the scope and disarms on exit (fault_test.cpp idiom).
class ScopedFaults {
public:
  explicit ScopedFaults(const std::string &Spec) {
    std::string Err;
    EXPECT_TRUE(fault::arm(Spec, &Err)) << Err;
  }
  ~ScopedFaults() { fault::disarm(); }
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

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// key -> margin over a JSONL results file (store or merged output).
std::map<std::string, double> marginsOf(const std::string &Path) {
  std::map<std::string, double> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    support::JsonValue Doc;
    EXPECT_TRUE(support::parseJson(Line, Doc)) << Line;
    const support::JsonValue *Key = Doc.find("key");
    const support::JsonValue *Margin = Doc.find("margin");
    EXPECT_NE(Key, nullptr) << Line;
    EXPECT_NE(Margin, nullptr) << Line;
    if (Key && Margin)
      Out[Key->StringVal] = Margin->NumberVal;
  }
  return Out;
}

bool sitesCompiledIn() {
#ifdef DEEPT_FAULT_INJECT
  return true;
#else
  return false;
#endif
}

} // namespace

//===----------------------------------------------------------------------===//
// Lease protocol primitives
//===----------------------------------------------------------------------===//

TEST(Lease, JsonRoundTrip) {
  Lease L;
  L.Range = 3;
  L.Ranges = 8;
  L.Owner = "worker \"zero\"";
  L.Pid = 4242;
  L.CreatedMs = 1700000000123;
  L.HeartbeatMs = 1700000000456;
  Lease Back;
  std::string Err;
  ASSERT_TRUE(Lease::fromJson(L.toJson(), Back, &Err)) << Err;
  EXPECT_EQ(Back.Range, L.Range);
  EXPECT_EQ(Back.Ranges, L.Ranges);
  EXPECT_EQ(Back.Owner, L.Owner);
  EXPECT_EQ(Back.Pid, L.Pid);
  EXPECT_EQ(Back.CreatedMs, L.CreatedMs);
  EXPECT_EQ(Back.HeartbeatMs, L.HeartbeatMs);

  Lease Dead;
  EXPECT_FALSE(Lease::fromJson("not json", Dead, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(Lease::fromJson("{\"deept_lease\":1}", Dead, &Err));
}

TEST(Lease, ClaimIsExclusiveUntilReleased) {
  TempDir Dir("coordination_test_claim");

  Lease A;
  A.Range = 0;
  A.Ranges = 2;
  A.Owner = "alpha";
  Error E;
  ASSERT_EQ(support::claimLease(Dir.path(), A, &E),
            support::ClaimOutcome::Claimed)
      << E.what();
  EXPECT_GT(A.CreatedMs, 0);
  EXPECT_EQ(A.HeartbeatMs, A.CreatedMs);

  // A second claimant loses without an error.
  Lease B = A;
  B.Owner = "beta";
  EXPECT_EQ(support::claimLease(Dir.path(), B, &E),
            support::ClaimOutcome::Held);

  // The on-disk document is alpha's, and it validates as lease JSON.
  Lease Cur;
  ASSERT_TRUE(
      support::readLeaseFile(support::leasePath(Dir.path(), 0), Cur, &E))
      << E.what();
  EXPECT_EQ(Cur.Owner, "alpha");
  EXPECT_EQ(Cur.CreatedMs, A.CreatedMs);

  // Release frees the range for the next claimant.
  EXPECT_TRUE(support::releaseLease(Dir.path(), A, &E)) << E.what();
  EXPECT_EQ(support::claimLease(Dir.path(), B, &E),
            support::ClaimOutcome::Claimed)
      << E.what();
}

TEST(Lease, RenewAdvancesHeartbeatAndDetectsLoss) {
  TempDir Dir("coordination_test_renew");

  Lease A;
  A.Range = 1;
  A.Ranges = 4;
  A.Owner = "alpha";
  Error E;
  ASSERT_EQ(support::claimLease(Dir.path(), A, &E),
            support::ClaimOutcome::Claimed);

  int64_t Before = A.HeartbeatMs;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(support::renewLease(Dir.path(), A, &E)) << E.what();
  EXPECT_GT(A.HeartbeatMs, Before);

  // After a reclaim, the holder's next renewal reports LeaseLost -- the
  // signal that it must stop writing its shard.
  Lease Cur;
  ASSERT_TRUE(
      support::readLeaseFile(support::leasePath(Dir.path(), 1), Cur));
  ASSERT_TRUE(support::reclaimLease(Dir.path(), Cur, "beta", &E))
      << E.what();
  EXPECT_FALSE(support::renewLease(Dir.path(), A, &E));
  EXPECT_EQ(E.code(), ErrorCode::LeaseLost);
}

TEST(Lease, StalenessIsAPureFunctionOfHeartbeatAge) {
  Lease L;
  L.HeartbeatMs = 1000;
  EXPECT_FALSE(support::leaseIsStale(L, 1400, 500));
  EXPECT_FALSE(support::leaseIsStale(L, 1500, 500)); // exactly at the bound
  EXPECT_TRUE(support::leaseIsStale(L, 1501, 500));
}

TEST(Lease, ReclaimRequiresMatchingOwnership) {
  TempDir Dir("coordination_test_reclaim");

  Lease A;
  A.Range = 0;
  A.Ranges = 1;
  A.Owner = "alpha";
  Error E;
  ASSERT_EQ(support::claimLease(Dir.path(), A, &E),
            support::ClaimOutcome::Claimed);

  // A reclaimer acting on a stale snapshot (the lease was meanwhile
  // released and re-claimed, so CreatedMs moved) must not steal the new
  // holder's lease: the ABA check puts the file back.
  Lease Snapshot = A;
  Snapshot.CreatedMs -= 10; // pretend we read an older incarnation
  EXPECT_FALSE(support::reclaimLease(Dir.path(), Snapshot, "beta", &E));
  Lease Cur;
  ASSERT_TRUE(
      support::readLeaseFile(support::leasePath(Dir.path(), 0), Cur, &E))
      << E.what();
  EXPECT_EQ(Cur.Owner, "alpha");
  EXPECT_EQ(Cur.CreatedMs, A.CreatedMs);

  // A matching snapshot wins, and the second reclaimer of the same
  // snapshot loses (the file is already gone).
  EXPECT_TRUE(support::reclaimLease(Dir.path(), Cur, "beta", &E))
      << E.what();
  EXPECT_FALSE(
      support::fileExists(support::leasePath(Dir.path(), 0)));
  EXPECT_FALSE(support::reclaimLease(Dir.path(), Cur, "gamma", &E));
}

//===----------------------------------------------------------------------===//
// Worker end-to-end
//===----------------------------------------------------------------------===//

namespace {

/// The serial reference: the same queue through one plain Scheduler (the
/// configuration a single-worker `batch` run uses).
std::map<std::string, double> serialMargins(const TinySetup &S,
                                            const JobQueue &Q) {
  Scheduler Sched(S.Model);
  std::map<std::string, double> Out;
  for (const JobResult &R : Sched.run(Q)) {
    EXPECT_NE(R.Status, JobStatus::Error) << R.Error;
    Out[R.Key] = R.Margin;
  }
  return Out;
}

JobQueue mixedQueue(const TinySetup &S) {
  JobQueue Q;
  Q.push(S.job(JobMethod::Fast, 0.02));
  Q.push(S.job(JobMethod::Fast, 0.05));
  Q.push(S.job(JobMethod::Precise, 0.05));
  Q.push(S.job(JobMethod::Combined, 0.05));
  Q.push(S.job(JobMethod::Fast, 0.08));
  return Q;
}

} // namespace

TEST(Coordination, RangeOfPartitionsKeysStably) {
  TinySetup S;
  JobQueue Q = mixedQueue(S);
  for (const JobSpec &Spec : Q.specs()) {
    std::string Key = Scheduler::jobKey(Spec);
    size_t R = Worker::rangeOf(Key, 4);
    EXPECT_LT(R, 4u);
    EXPECT_EQ(R, Worker::rangeOf(Key, 4)); // stable
  }
  // The digest pins the job set: reordering or dropping a job changes it.
  std::string Full = Worker::queueDigest(Q);
  JobQueue Partial;
  Partial.push(Q.spec(0));
  EXPECT_NE(Full, Worker::queueDigest(Partial));
  EXPECT_EQ(Full, Worker::queueDigest(Q));
}

TEST(Coordination, SingleWorkerConvergesBitIdenticalToSerial) {
  TinySetup S;
  TempDir Dir("coordination_test_single");
  TempFile Out("coordination_test_single_merged.jsonl");
  JobQueue Q = mixedQueue(S);
  std::map<std::string, double> Serial = serialMargins(S, Q);

  CoordinationOptions CO;
  CO.LeaseDir = Dir.path();
  CO.Ranges = 3;
  CO.WorkerId = "solo";
  Worker W(S.Model, Q, CO);
  WorkerReport Rep = W.run();
  EXPECT_EQ(Rep.RangesCompleted, 3u);
  EXPECT_EQ(Rep.Jobs, Q.size());
  EXPECT_EQ(Rep.JobsOk, Q.size());
  EXPECT_EQ(Rep.LeasesReclaimed, 0u);

  // Every range published its done marker and released its lease.
  for (size_t R = 0; R < 3; ++R) {
    EXPECT_TRUE(support::fileExists(support::donePath(Dir.path(), R)));
    EXPECT_FALSE(support::fileExists(support::leasePath(Dir.path(), R)));
  }

  // The merged store matches the serial run bit-for-bit on margins.
  MergeReport MR;
  Error E;
  ASSERT_TRUE(verify::mergeShards(Dir.path(), 0, Out.path(), MR, &E))
      << E.what();
  EXPECT_EQ(MR.Records, Q.size());
  EXPECT_EQ(MR.DuplicatesCollapsed, 0u);
  EXPECT_EQ(MR.DroppedCrc, 0u);
  EXPECT_EQ(MR.DroppedMalformed, 0u);
  EXPECT_EQ(marginsOf(Out.path()), Serial);
}

TEST(Coordination, LateWorkerFindsBatchAlreadyDrained) {
  TinySetup S;
  TempDir Dir("coordination_test_two");
  TempFile Out("coordination_test_two_merged.jsonl");
  JobQueue Q = mixedQueue(S);
  std::map<std::string, double> Serial = serialMargins(S, Q);

  // Worker one drains everything; worker two arrives late, finds every
  // range done, and exits without work. (Concurrent workers are drilled
  // process-per-worker in the smoke test and the CI chaos stage; here
  // the sequential schedule keeps the unit test deterministic.)
  CoordinationOptions CO;
  CO.LeaseDir = Dir.path();
  CO.Ranges = 2;
  CO.WorkerId = "first";
  WorkerReport R1 = Worker(S.Model, Q, CO).run();
  EXPECT_EQ(R1.RangesCompleted, 2u);

  CO.WorkerId = "second";
  WorkerReport R2 = Worker(S.Model, Q, CO).run();
  EXPECT_EQ(R2.RangesCompleted, 0u);
  EXPECT_EQ(R2.Jobs, 0u);

  MergeReport MR;
  Error E;
  ASSERT_TRUE(verify::mergeShards(Dir.path(), 0, Out.path(), MR, &E))
      << E.what();
  EXPECT_EQ(MR.Records, Q.size());
  EXPECT_EQ(marginsOf(Out.path()), Serial);
}

TEST(Coordination, ManifestPinsShardGeometry) {
  TinySetup S;
  TempDir Dir("coordination_test_manifest");
  JobQueue Q = mixedQueue(S);

  CoordinationOptions CO;
  CO.LeaseDir = Dir.path();
  CO.Ranges = 2;
  CO.WorkerId = "first";
  Worker(S.Model, Q, CO).run();

  // A worker wanting a different range count must be rejected: it would
  // route keys to different shards than the batch was started with.
  CO.Ranges = 3;
  CO.WorkerId = "rogue";
  try {
    Worker(S.Model, Q, CO).run();
    FAIL() << "range-count mismatch not detected";
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::BadArgument);
  }

  // So must a worker with a different job set (same range count).
  CO.Ranges = 2;
  JobQueue Other;
  Other.push(S.job(JobMethod::Fast, 0.03));
  try {
    Worker(S.Model, Other, CO).run();
    FAIL() << "queue-digest mismatch not detected";
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::BadArgument);
  }
}

TEST(Coordination, CrashedWorkersLeaseIsReclaimedAndBatchConverges) {
  if (!sitesCompiledIn())
    GTEST_SKIP() << "fault sites compiled out";
  TinySetup S;
  TempDir Dir("coordination_test_crash");
  TempFile Out("coordination_test_crash_merged.jsonl");
  JobQueue Q = mixedQueue(S);
  std::map<std::string, double> Serial = serialMargins(S, Q);

  double ReclaimsBefore =
      support::Metrics::global().counterValue("coord.leases_reclaimed");

  // Worker one dies at the drill point: its first range's shard is fully
  // written, but the done marker was never published and the lease file
  // is still on disk with nobody renewing it.
  CoordinationOptions CO;
  CO.LeaseDir = Dir.path();
  CO.Ranges = 3;
  CO.WorkerId = "doomed";
  CO.HeartbeatMs = 50;
  {
    ScopedFaults F("worker.crash:1:fail");
    try {
      Worker(S.Model, Q, CO).run();
      FAIL() << "injected crash did not fire";
    } catch (const Error &E) {
      EXPECT_EQ(E.code(), ErrorCode::FaultInjected);
    }
  }
  size_t Leases = 0, Markers = 0;
  for (size_t R = 0; R < 3; ++R) {
    Leases += support::fileExists(support::leasePath(Dir.path(), R));
    Markers += support::fileExists(support::donePath(Dir.path(), R));
  }
  EXPECT_EQ(Leases, 1u);
  EXPECT_EQ(Markers, 0u);

  // A survivor observes the stale heartbeat, reclaims the dead worker's
  // lease, resumes its shard (all jobs skip -- the shard was complete)
  // and finishes the remaining ranges.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  CO.WorkerId = "survivor";
  CO.HeartbeatMs = 5;
  CO.StaleAfterMs = 1;
  WorkerReport Rep = Worker(S.Model, Q, CO).run();
  EXPECT_EQ(Rep.LeasesReclaimed, 1u);
  EXPECT_EQ(Rep.RangesCompleted, 3u);
  // The crashed worker ran range 0 (first in its scan order) to
  // completion, so exactly that sub-queue's jobs skip on resume.
  size_t Range0Jobs = 0;
  for (const JobSpec &Spec : Q.specs())
    Range0Jobs += Worker::rangeOf(Scheduler::jobKey(Spec), 3) == 0;
  EXPECT_EQ(Rep.Jobs, Q.size());
  EXPECT_EQ(Rep.JobsSkipped, Range0Jobs);
  EXPECT_EQ(
      support::Metrics::global().counterValue("coord.leases_reclaimed"),
      ReclaimsBefore + 1);

  // No lost records, no duplicates, margins bit-identical to serial.
  MergeReport MR;
  Error E;
  ASSERT_TRUE(verify::mergeShards(Dir.path(), 0, Out.path(), MR, &E))
      << E.what();
  EXPECT_EQ(MR.Records, Q.size());
  EXPECT_EQ(MR.DuplicatesCollapsed, 0u);
  EXPECT_EQ(marginsOf(Out.path()), Serial);
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
  TempFile Store("coordination_test_crcstore.jsonl");
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
  auto Keys = Scheduler::completedKeys(Store.path());
  EXPECT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys.count("b"), 1u);
}

//===----------------------------------------------------------------------===//
// Shard merge
//===----------------------------------------------------------------------===//

namespace {

/// A store-shaped record with the given key and margin, CRC'd exactly as
/// the scheduler writes it.
std::string record(const std::string &Key, double Margin) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"key\":\"%s\",\"status\":\"ok\",\"method\":\"fast\","
                "\"certified\":true,\"margin\":%.17g,\"radius\":0,"
                "\"seconds\":0.5}",
                Key.c_str(), Margin);
  return Scheduler::withRecordCrc(Buf);
}

} // namespace

TEST(Coordination, MergeCollapsesDuplicatesAndDropsCorruptRecords) {
  TempDir Dir("coordination_test_merge");
  TempFile Out("coordination_test_merge_out.jsonl");

  // Shard 0: a, b. Shard 1: a zombie duplicate of `a` differing only in
  // the timing field (what a reclaimed worker's extra append looks
  // like), a CRC-flipped record, an unparseable line, and c.
  std::string DupA = record("a", 1.5);
  size_t Pos = DupA.find("\"seconds\":0.5");
  ASSERT_NE(Pos, std::string::npos);
  DupA.replace(Pos, 13, "\"seconds\":9.9");
  DupA = Scheduler::withRecordCrc(
      DupA.substr(0, DupA.rfind(",\"crc32\":")) + "}");
  std::string BadCrc = record("x", 3.0);
  size_t StatusPos = BadCrc.find("\"ok\"");
  ASSERT_NE(StatusPos, std::string::npos);
  BadCrc[StatusPos + 1] = 'O';
  writeFileBytes(support::shardPath(Dir.path(), 0),
                 record("a", 1.5) + "\n" + record("b", 2.0) + "\n");
  writeFileBytes(support::shardPath(Dir.path(), 1),
                 DupA + "\n" + BadCrc + "\nnot json\n" +
                     record("c", 2.5) + "\n");

  MergeReport MR;
  Error E;
  ASSERT_TRUE(verify::mergeShards(Dir.path(), 2, Out.path(), MR, &E))
      << E.what();
  EXPECT_EQ(MR.Shards, 2u);
  EXPECT_EQ(MR.Records, 3u);
  EXPECT_EQ(MR.DuplicatesCollapsed, 1u);
  EXPECT_EQ(MR.DroppedCrc, 1u);
  EXPECT_EQ(MR.DroppedMalformed, 1u);
  std::map<std::string, double> Want{{"a", 1.5}, {"b", 2.0}, {"c", 2.5}};
  EXPECT_EQ(marginsOf(Out.path()), Want);

  // Every merged line carries a valid CRC (merge preserves records).
  std::ifstream In(Out.path());
  std::string Line;
  while (std::getline(In, Line))
    EXPECT_EQ(Scheduler::checkRecordCrc(Line), Scheduler::RecordCrc::Ok)
        << Line;
}

TEST(Coordination, MergeRefusesSemanticConflicts) {
  TempDir Dir("coordination_test_conflict");
  TempFile Out("coordination_test_conflict_out.jsonl");
  // Two shards claim different margins for the same key: determinism
  // says that is impossible, so the store is corrupt and the merge must
  // fail loudly rather than silently pick one.
  writeFileBytes(support::shardPath(Dir.path(), 0), record("a", 1.5) + "\n");
  writeFileBytes(support::shardPath(Dir.path(), 1), record("a", 1.6) + "\n");
  MergeReport MR;
  Error E;
  EXPECT_FALSE(verify::mergeShards(Dir.path(), 2, Out.path(), MR, &E));
  EXPECT_EQ(E.code(), ErrorCode::StoreCorrupt);
}

//===----------------------------------------------------------------------===//
// Retry with deterministic backoff
//===----------------------------------------------------------------------===//

TEST(Scheduler, TransientFaultIsRetriedAndSucceeds) {
  if (!sitesCompiledIn())
    GTEST_SKIP() << "fault sites compiled out";
  TinySetup S;
  ScopedFaults F("sched.execute:1:fail");

  SchedulerOptions Opts;
  Opts.MaxRetries = 2;
  Opts.RetryBackoffMs = 1;
  double RetriesBefore =
      support::Metrics::global().counterValue("sched.retries");
  double BackoffBefore =
      support::Metrics::global().histogramStats("sched.retry_backoff_ms").Sum;

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Ok);
  EXPECT_EQ(R[0].Retries, 1);
  EXPECT_EQ(support::Metrics::global().counterValue("sched.retries"),
            RetriesBefore + 1);
  // First retry waits exactly RetryBackoffMs (jitter-free schedule).
  EXPECT_EQ(
      support::Metrics::global().histogramStats("sched.retry_backoff_ms").Sum,
      BackoffBefore + 1);
  // The store line records the retry count for post-mortems.
  EXPECT_NE(Scheduler::resultJsonLine(R[0]).find("\"retries\":1"),
            std::string::npos);
}

TEST(Scheduler, RetryExhaustionIsATypedErrorThatNeverBlocksTheBatch) {
  if (!sitesCompiledIn())
    GTEST_SKIP() << "fault sites compiled out";
  TinySetup S;
  TempFile Store("coordination_test_exhaust.jsonl");
  ScopedFaults F("sched.execute:0:fail"); // every attempt fails

  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.MaxRetries = 3;
  Opts.RetryBackoffMs = 1;
  Opts.RetryBackoffMaxMs = 2;
  double BackoffBefore =
      support::Metrics::global().histogramStats("sched.retry_backoff_ms").Sum;

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast, 0.02));
  Q.push(S.job(JobMethod::Fast, 0.05));
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 2u);
  for (const JobResult &J : R) {
    EXPECT_EQ(J.Status, JobStatus::Error);
    EXPECT_EQ(J.Code, ErrorCode::FaultInjected);
    EXPECT_EQ(J.Retries, 3);
    EXPECT_FALSE(J.Certified);
  }
  // The deterministic schedule (base 1ms, cap 2ms) waits 1+2+2 per job.
  EXPECT_EQ(
      support::Metrics::global().histogramStats("sched.retry_backoff_ms").Sum,
      BackoffBefore + 2 * (1 + 2 + 2));
  // Both failures landed in the store as typed records.
  EXPECT_EQ(Scheduler::completedKeys(Store.path()).size(), 2u);
}

TEST(Scheduler, PermanentErrorsAreNeverRetried) {
  TinySetup S;
  SchedulerOptions Opts;
  Opts.MaxRetries = 5;
  Opts.RetryBackoffMs = 1;
  double RetriesBefore =
      support::Metrics::global().counterValue("sched.retries");

  JobQueue Q;
  JobSpec Bad = S.job(JobMethod::Fast);
  Bad.Word = 99; // permanent: job_invalid, retrying cannot help
  Q.push(Bad);
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Status, JobStatus::Error);
  EXPECT_EQ(R[0].Code, ErrorCode::JobInvalid);
  EXPECT_EQ(R[0].Retries, 0);
  EXPECT_EQ(support::Metrics::global().counterValue("sched.retries"),
            RetriesBefore);
}

TEST(Scheduler, OutOfMemoryDegradesBeforeRetrying) {
  if (!sitesCompiledIn())
    GTEST_SKIP() << "fault sites compiled out";
  TinySetup S;
  SchedulerOptions Opts;
  Opts.MaxRetries = 1;
  Opts.RetryBackoffMs = 1;

  // A Precise job hit by an allocation fault degrades to Fast (cheaper
  // sound answer now) without spending a retry...
  {
    ScopedFaults F("sched.execute:1:alloc");
    JobQueue Q;
    Q.push(S.job(JobMethod::Precise));
    std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
    ASSERT_EQ(R.size(), 1u);
    EXPECT_EQ(R[0].Status, JobStatus::Degraded);
    EXPECT_EQ(R[0].MethodUsed, JobMethod::Fast);
    EXPECT_EQ(R[0].Retries, 0);
  }
  // ...while a Fast job has nothing below it, so the same fault takes
  // the transient-retry path instead.
  {
    ScopedFaults F("sched.execute:1:alloc");
    JobQueue Q;
    Q.push(S.job(JobMethod::Fast));
    std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
    ASSERT_EQ(R.size(), 1u);
    EXPECT_EQ(R[0].Status, JobStatus::Ok);
    EXPECT_EQ(R[0].Retries, 1);
  }
}

TEST(Scheduler, AbortCheckStopsJobsBeforeTheyStart) {
  TinySetup S;
  TempFile Store("coordination_test_abort.jsonl");
  SchedulerOptions Opts;
  Opts.JsonlPath = Store.path();
  Opts.AbortCheck = [] { return true; }; // lease lost before anything ran

  JobQueue Q;
  Q.push(S.job(JobMethod::Fast));
  Q.push(S.job(JobMethod::Precise));
  std::vector<JobResult> R = Scheduler(S.Model, Opts).run(Q);
  ASSERT_EQ(R.size(), 2u);
  for (const JobResult &J : R) {
    EXPECT_EQ(J.Status, JobStatus::Error);
    EXPECT_EQ(J.Code, ErrorCode::LeaseLost);
  }
  // Aborted jobs must not poison the store: another worker owns the
  // range now and will produce the real records.
  EXPECT_TRUE(Scheduler::completedKeys(Store.path()).empty());
}
