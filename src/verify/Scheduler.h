//===- verify/Scheduler.h - Batched certification scheduler ----*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling layer: a batch driver that runs many independent
/// certification jobs {sentence, position, eps spec, method, deadline}
/// concurrently over the shared support::Parallel pool. Individual
/// queries stay bit-identical to serial single-job runs (jobs execute
/// with the pool's deterministic partitioning; a job running on a worker
/// serialises its inner loops, which preserves chunk boundaries), while
/// batch throughput scales with the thread count.
///
/// Graceful degradation (the DeepT Fast -> Precise ladder, run
/// downwards): when a DeepT-Precise or combined job exceeds its
/// wall-clock deadline or runs out of memory, it runs once more as
/// DeepT-Fast and is tagged `degraded` -- the batch prefers a cheaper,
/// sound answer over no answer, so that attempt runs to completion
/// without a deadline. A job that still fails (or was DeepT-Fast / CROWN
/// to begin with) is recorded as `error` with the exception text and the
/// batch continues. Nothing else is re-run: an attempt is deterministic,
/// so repeating a failed one would fail the same way.
///
/// Results stream to a resumable JSONL store: one JSON object per line,
/// appended (and flushed) as each job completes, so a killed batch keeps
/// everything it finished. Re-running with Resume set skips jobs whose
/// key is already present in the store.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_VERIFY_SCHEDULER_H
#define DEEPT_VERIFY_SCHEDULER_H

#include "support/Error.h"
#include "verify/DeepT.h"
#include "verify/RadiusSearch.h"

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace deept {
namespace support {
struct JsonValue;
} // namespace support

namespace verify {

struct CertificateData;
struct PrecisionProfile;

/// The verifier family a job runs under. Precise and Combined degrade to
/// Fast; Fast and the CROWN baselines have nothing below them.
enum class JobMethod { Fast, Precise, Combined, CrownBaF, CrownBackward };

const char *jobMethodName(JobMethod M);
/// Parses "fast" / "precise" / "combined" / "crown-baf" /
/// "crown-backward" (the CLI --verifier vocabulary).
bool parseJobMethod(const std::string &Name, JobMethod &Out);
/// Parses "l1" / "l2" / "linf" (the --norm and jobs-file `norm`
/// vocabulary) into an lp exponent (tensor::Matrix::InfNorm for linf).
bool parseNormName(const std::string &Name, double &Out);

/// One certification query: the lp region of radius Epsilon around word
/// position Word of a token sequence, certified with Method.
struct JobSpec {
  /// Stable result-store key; derived from the job contents when empty
  /// (see Scheduler::jobKey). The deadline is deliberately not part of
  /// the derived key, so a resumed batch with a new deadline still skips
  /// completed jobs.
  std::string Id;
  std::vector<size_t> Tokens;
  size_t TrueClass = 0;
  size_t Word = 0;
  /// lp norm of the perturbation region (tensor::Matrix::InfNorm for
  /// l-infinity).
  double P = 2.0;
  /// Region radius for fixed-eps jobs; ignored for search jobs (the
  /// search spec below drives those).
  double Epsilon = 0.05;
  /// Binary-search the largest certifiable radius (Section 6.1) instead
  /// of certifying one fixed eps.
  bool SearchRadius = false;
  RadiusSearchOptions Search;
  JobMethod Method = JobMethod::Fast;
  /// Per-job wall-clock deadline in milliseconds. -1 inherits the batch
  /// default; 0 expires immediately (forces the degradation path, used
  /// by tests and drills); > 0 is a real deadline.
  int64_t DeadlineMs = -1;
  /// DeepT noise-symbol reduction budget (Section 5.1).
  size_t NoiseReductionBudget = 600;
};

enum class JobStatus { Ok, Degraded, Error, Skipped };

const char *jobStatusName(JobStatus S);

/// Outcome of one job. Margin / Radius are bit-identical to a serial
/// single-job run of the same query at any pool thread count.
struct JobResult {
  std::string Key;
  JobStatus Status = JobStatus::Ok;
  bool Certified = false;
  /// Fixed-eps jobs: certified margin lower bound at Epsilon.
  double Margin = 0.0;
  /// Search jobs: largest certified radius found.
  double Radius = 0.0;
  /// The method that produced the answer (differs from the spec's when
  /// the job degraded).
  JobMethod MethodUsed = JobMethod::Fast;
  bool DeadlineHit = false;
  std::string Error;
  /// Taxonomy code of the failure (support::ErrorCode::Ok on success);
  /// serialized as the JSONL `error_code` field.
  support::ErrorCode Code = support::ErrorCode::Ok;
  /// Wall-clock seconds spent executing (all attempts).
  double Seconds = 0.0;
  /// Milliseconds between batch start and this job starting.
  double QueueMs = 0.0;
};

/// The certified margin lower bound of \p Spec's query region at radius
/// \p Radius under \p Method (Spec.Method and Spec.Epsilon are not read):
/// the one probe every scheduled job and `deept_cli certify` run. DeepT
/// methods run with \p Observers attached; the CROWN baselines take
/// none, and a CROWN run that exhausts its memory budget returns
/// -HUGE_VAL (not certified), matching CrownVerifier::certifyLpBall.
double probeMargin(const nn::TransformerModel &Model, const JobSpec &Spec,
                   JobMethod Method, double Radius,
                   const ObserverList &Observers = {});

/// Thrown by the cooperative deadline checks (the scheduler's deadline
/// observer at the top of every layer, and once per probe). A
/// support::Error with code DeadlineExceeded, so untyped catch sites and
/// the JSONL store agree on the classification.
class DeadlineExceeded : public support::Error {
public:
  explicit DeadlineExceeded(int64_t Ms)
      : support::Error(support::ErrorCode::DeadlineExceeded,
                       "sched.deadline",
                       "deadline of " + std::to_string(Ms) +
                           " ms exceeded") {}
};

/// An ordered batch of job specs. Thin by design -- the queue is the
/// unit the scheduler partitions over, and the JSON form is what the
/// `deept_cli batch --jobs` file contains.
class JobQueue {
public:
  void push(JobSpec J) { Specs.push_back(std::move(J)); }
  size_t size() const { return Specs.size(); }
  bool empty() const { return Specs.empty(); }
  const JobSpec &spec(size_t I) const { return Specs[I]; }
  const std::vector<JobSpec> &specs() const { return Specs; }

  /// Builds a queue from the batch jobs document:
  ///   {"jobs":[{"id":"j0","seed":7,"word":0,"norm":"l2","eps":0.05,
  ///             "method":"precise","deadline_ms":500,"search":false,
  ///             "budget":600}, ...]}
  /// Each job names its sentence either explicitly ("tokens":[..] plus
  /// "label":0|1) or as a corpus sample ("seed":N, which draws a
  /// labelled sentence from \p Corpus; "label" may override). Returns
  /// false and fills \p Err on malformed documents, including an "eps"
  /// that is not positive and finite, a search job whose "eps" (its
  /// first probe) lies outside [MinRadius, MaxRadius] of
  /// RadiusSearchOptions, and a job whose key (Scheduler::jobKey)
  /// repeats an earlier job's.
  static bool fromJson(const support::JsonValue &Doc,
                       const data::SyntheticCorpus *Corpus, JobQueue &Out,
                       std::string *Err);

  /// fromJson over the contents of \p Path.
  static bool fromJsonFile(const std::string &Path,
                           const data::SyntheticCorpus *Corpus,
                           JobQueue &Out, std::string *Err);

private:
  std::vector<JobSpec> Specs;
};

struct SchedulerOptions {
  /// Batch-wide deadline applied to jobs whose DeadlineMs is -1;
  /// 0 disables (no deadline).
  int64_t DefaultDeadlineMs = 0;
  /// JSONL result store path; empty disables the store.
  std::string JsonlPath;
  /// Skip jobs whose key already appears in the store.
  bool Resume = false;
  /// fsync the store after every record, making each completed job
  /// durable at the cost of one fsync per job.
  bool Fsync = false;
  /// Per-job precision profiles (verify/Profile.h), one JSONL line per
  /// executed DeepT job, appended here; empty disables profiling (the
  /// default -- profiles cost width computations at every checkpoint).
  /// Search jobs record the profile of their final probe.
  std::string ProfileJsonlPath;
  /// Proof-certificate directory: every DeepT job whose final probe
  /// certified writes a replayable certificate artifact
  /// (verify/Certificate.h) to "<CertDir>/cert-<key>.json" -- search
  /// jobs keep the certificate of their last certified probe. CROWN
  /// jobs and uncertified / failed jobs write nothing. A failed write
  /// (including an injected "cert.write" fault) never fails the job:
  /// it is counted by cert.write_failures and the batch continues.
  /// Empty disables.
  std::string CertDir;
};

/// The batch driver. One instance serves one model; run() may be called
/// repeatedly, and each call is one independent batch: no state carries
/// from one run() to the next, so a job's result depends only on its
/// spec.
class Scheduler {
public:
  explicit Scheduler(const nn::TransformerModel &Model,
                     SchedulerOptions Opts = SchedulerOptions())
      : Model(Model), Opts(Opts) {}

  const SchedulerOptions &options() const { return Opts; }

  /// Runs every job in \p Queue, concurrently over the shared pool, and
  /// returns results in queue order (including Skipped entries for
  /// resumed jobs). Records sched.* metrics and Trace spans; streams
  /// completed jobs to the JSONL store when configured. Throws only for
  /// batch-level failures (unwritable store); per-job failures become
  /// `error` results.
  std::vector<JobResult> run(const JobQueue &Queue) const;

  /// The result-store key of a job: its Id when set, otherwise a
  /// deterministic digest of the query contents (method, norm, word,
  /// eps spec, tokens, class, budget -- not the deadline).
  static std::string jobKey(const JobSpec &Spec);

  /// One JSONL store line (no trailing newline).
  static std::string resultJsonLine(const JobResult &R);

  /// resultJsonLine plus a trailing per-record `crc32` field (CRC-32 of
  /// the payload bytes), the form run() actually appends to the store so
  /// interior bit-flips are detected at resume time.
  static std::string resultStoreLine(const JobResult &R);

  /// Appends `,"crc32":<crc of Payload>}` to a one-line JSON object.
  static std::string withRecordCrc(const std::string &Payload);

  /// Per-record CRC verdict of a store line. Missing is not an error:
  /// stores written before the CRC field existed stay resumable.
  enum class RecordCrc { Ok, Missing, Mismatch };
  static RecordCrc checkRecordCrc(const std::string &Line);

  /// The store reader, with crash recovery: the keys of the results
  /// already present in a JSONL store (empty when the file does not
  /// exist). A torn trailing record (a line without its newline, or an
  /// unparseable final line -- the footprint of a crash mid-append) is
  /// truncated away so its job simply re-runs. Interior malformed lines
  /// and records whose per-record CRC mismatches (an interior bit-flip)
  /// are ignored, so the affected job re-runs.
  static std::set<std::string> recoverStore(const std::string &Path,
                                            support::Error *Err = nullptr);

private:
  void executeWithDegradation(const JobSpec &Spec, JobResult &R,
                              PrecisionProfile *Prof,
                              CertificateData *Cert) const;

  const nn::TransformerModel &Model;
  SchedulerOptions Opts;
};

} // namespace verify
} // namespace deept

#endif // DEEPT_VERIFY_SCHEDULER_H
