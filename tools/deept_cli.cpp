//===- tools/deept_cli.cpp - Command line front end ------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
// The deept command line tool: train Transformer sentiment classifiers on
// the synthetic corpora, certify them under threat models T1 and T2 with
// any verifier of the family, attack them, and inspect saved models.
//
//   deept_cli train   --out model.dptm --corpus sst --layers 3 [...]
//   deept_cli certify --model model.dptm --corpus sst --norm l2 [...]
//   deept_cli synonym --model model.dptm --corpus synonym [--count 10]
//   deept_cli attack  --model model.dptm --corpus sst --norm l2 [...]
//   deept_cli batch   --model model.dptm --jobs jobs.json --out r.jsonl
//   deept_cli info    --model model.dptm
//
//===----------------------------------------------------------------------===//

#include "attack/Enumeration.h"
#include "attack/Pgd.h"
#include "nn/Serialize.h"
#include "nn/Train.h"
#include "support/ArgParse.h"
#include "support/Error.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "tensor/Kernels.h"
#include "verify/Certificate.h"
#include "verify/DeepT.h"
#include "verify/Profile.h"
#include "verify/RadiusSearch.h"
#include "verify/Scheduler.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace deept;
using support::ArgParse;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: deept_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  train    --out FILE [--corpus sst|yelp|synonym] [--embed N]\n"
      "           [--layers N] [--heads N] [--hidden N] [--steps N]\n"
      "           [--std-layernorm] [--robust] [--seed N]\n"
      "  certify  --model FILE [--corpus ...] [--norm l1|l2|linf]\n"
      "           [--word N] [--sentences N]\n"
      "           [--verifier fast|precise|combined|crown-baf|crown-backward]\n"
      "           [--eps R] certify one fixed radius R (prints the margin;\n"
      "           a non-positive margin means falsified) instead of binary-\n"
      "           searching the largest certifiable radius\n"
      "           [--profile-out FILE.jsonl] per-query precision profiles\n"
      "           (checkpoint width/growth stats + noise-symbol\n"
      "           attribution; DeepT verifiers only, one line per margin\n"
      "           computation)\n"
      "           [--cert-out FILE.jsonl] proof certificates (DeepT\n"
      "           verifiers only, one CRC-checked envelope per margin\n"
      "           computation; replay with `deept_check FILE.jsonl`)\n"
      "  synonym  --model FILE [--corpus ...] [--count N]\n"
      "  attack   --model FILE [--corpus ...] [--norm l1|l2|linf] [--word N]\n"
      "  batch    --model FILE --jobs FILE.json --out FILE.jsonl\n"
      "           [--corpus ...] [--deadline-ms N]\n"
      "           [--resume] [--fsync] [--profile-out FILE.jsonl]\n"
      "           [--cert-dir DIR]\n"
      "           run a batch of certification jobs on the scheduler:\n"
      "           per-job deadlines, Precise->Fast degradation, results\n"
      "           appended to the JSONL store (one object per job);\n"
      "           --resume skips jobs already present in the store and\n"
      "           repairs a crash-torn trailing record; --fsync makes\n"
      "           each record durable before the next job commits;\n"
      "           --profile-out streams per-job precision profiles\n"
      "           (a failed job's line holds its partial run), and\n"
      "           --cert-dir writes a proof certificate (cert-<key>.json,\n"
      "           replayable with deept_check) for each DeepT job whose\n"
      "           final probe certified; a failed job is recorded as an\n"
      "           error and the batch continues\n"
      "  info     --model FILE\n"
      "\n"
      "exit codes: 0 success, 2 bad arguments, 3 model/store load\n"
      "failure, 4 deadline exceeded, 5 internal error\n"
      "\n"
      "execution (any command):\n"
      "  --threads N             worker threads for the shared pool\n"
      "                          (default: all cores, or DEEPT_THREADS);\n"
      "                          results are identical for any N\n"
      "  --isa scalar|avx2|avx512|native\n"
      "                          SIMD kernel table (default: widest the\n"
      "                          CPU supports, or DEEPT_ISA); results are\n"
      "                          bit-identical for any thread count within\n"
      "                          an ISA\n"
      "\n"
      "observability (any command):\n"
      "  --trace-out FILE.json   record spans, write Chrome trace_event\n"
      "                          JSON (chrome://tracing / Perfetto) and\n"
      "                          print a self-time summary to stderr\n"
      "  --stats-json FILE.json  write the metrics registry as JSON\n");
  return 2;
}

support::Error badArgument(const std::string &Msg) {
  return support::Error(support::ErrorCode::BadArgument, "cli.flags", Msg);
}

data::CorpusConfig corpusConfig(const std::string &Kind, size_t EmbedDim) {
  if (Kind == "sst")
    return data::CorpusConfig::sstLike(EmbedDim);
  if (Kind == "yelp")
    return data::CorpusConfig::yelpLike(EmbedDim);
  if (Kind == "synonym")
    return data::CorpusConfig::synonymRich(EmbedDim);
  throw badArgument("--corpus must be sst, yelp or synonym, got '" + Kind +
                    "'");
}

/// The --corpus (default \p Default) a command samples for \p Model. Its
/// vocabulary must be the model's and its sentences no longer than the
/// model's MaxLen: the embedding guards both only with asserts, so a
/// mismatch is a bad argument before any work.
data::SyntheticCorpus modelCorpus(const ArgParse &Args, const char *Default,
                                  const nn::TransformerModel &Model) {
  std::string Kind = Args.get("corpus", Default);
  data::SyntheticCorpus Corpus(corpusConfig(Kind, Model.Config.EmbedDim));
  if (Corpus.vocabSize() != Model.Config.VocabSize)
    throw support::Error(
        support::ErrorCode::BadArgument, "cli.corpus",
        "--corpus " + Kind + " has " + std::to_string(Corpus.vocabSize()) +
            " words but the model's vocabulary has " +
            std::to_string(Model.Config.VocabSize));
  if (Corpus.config().MaxLen > Model.Config.MaxLen)
    throw support::Error(
        support::ErrorCode::BadArgument, "cli.corpus",
        "--corpus " + Kind + " has sentences of up to " +
            std::to_string(Corpus.config().MaxLen) +
            " words but the model's maximum length is " +
            std::to_string(Model.Config.MaxLen));
  return Corpus;
}

/// --Name as an integer of at least \p Min (\p Default when absent).
long intAtLeast(const ArgParse &Args, const std::string &Name, long Default,
                long Min) {
  long V = Args.getInt(Name, Default);
  if (V < Min)
    throw badArgument("--" + Name + " must be >= " + std::to_string(Min) +
                      ", got " + std::to_string(V));
  return V;
}

/// --norm (default l2) as an lp exponent, in the jobs-file vocabulary.
double normFlag(const ArgParse &Args) {
  double P = 2.0;
  if (!verify::parseNormName(Args.get("norm", "l2"), P))
    throw badArgument("--norm must be l1, l2 or linf, got '" +
                      Args.get("norm") + "'");
  return P;
}

/// --word as a position some sentence of \p Corpus has; a larger one
/// would make the sampling loops search forever.
size_t wordFlag(const ArgParse &Args, const data::SyntheticCorpus &Corpus) {
  long Word = intAtLeast(Args, "word", 0, 0);
  if (static_cast<size_t>(Word) >= Corpus.config().MaxLen)
    throw badArgument("--word " + std::to_string(Word) +
                      " is past the corpus's longest sentence (" +
                      std::to_string(Corpus.config().MaxLen) + " words)");
  return static_cast<size_t>(Word);
}

int cmdTrain(const ArgParse &Args) {
  std::string Out = Args.get("out");
  if (Out.empty())
    throw badArgument("train needs --out FILE");
  nn::TransformerConfig Cfg;
  Cfg.EmbedDim = intAtLeast(Args, "embed", 24, 1);
  Cfg.NumHeads = intAtLeast(Args, "heads", 4, 1);
  Cfg.HiddenDim = intAtLeast(Args, "hidden", Cfg.EmbedDim, 1);
  Cfg.NumLayers = intAtLeast(Args, "layers", 3, 1);
  Cfg.MaxLen = 16;
  Cfg.LayerNormStdDiv = Args.has("std-layernorm");
  long Seed = Args.getInt("seed", 1);
  nn::TrainOptions Opts;
  Opts.Steps = intAtLeast(Args, "steps", 60 * Cfg.NumLayers + 120, 0);
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), Cfg.EmbedDim));
  // The loader's limits (head count dividing the embedding, dimension
  // bounds): a model that breaks them would crash training or fail to
  // load once saved.
  Cfg.VocabSize = Corpus.vocabSize();
  std::string Why;
  if (!nn::validateConfig(Cfg, &Why))
    throw badArgument(Why);

  support::Rng Rng(Seed);
  nn::TransformerModel Model =
      nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);

  support::Rng DataRng(Seed + 1);
  auto Train = Corpus.sampleDataset(512, DataRng);
  auto Test = Corpus.sampleDataset(200, DataRng);
  Opts.BatchSize = 16;
  if (Args.has("robust")) {
    Opts.SynonymSwapProb = 0.8;
    Opts.EmbedNoise = 0.03;
  }
  double TrainSeconds = 0.0;
  {
    support::ScopedAccum A(TrainSeconds);
    nn::trainTransformer(Model, Corpus, Train, Opts);
  }
  std::printf("trained %zu-layer model in %.1f s, accuracy %.1f%%\n",
              Cfg.NumLayers, TrainSeconds,
              100.0 * nn::accuracy(Model, Test));
  support::Error SaveErr;
  if (!nn::saveModel(Out, Model, &SaveErr)) {
    std::fprintf(stderr, "error: %s\n", SaveErr.what());
    return support::exitCodeFor(SaveErr.code());
  }
  std::printf("saved to %s\n", Out.c_str());
  return 0;
}

int loadModelOrFail(const ArgParse &Args, nn::TransformerModel &Model) {
  std::string Path = Args.get("model");
  if (Path.empty())
    throw badArgument("missing --model FILE");
  support::Error Err;
  if (!nn::loadModel(Path, Model, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.what());
    return support::exitCodeFor(Err.code());
  }
  return 0;
}

int cmdCertify(const ArgParse &Args) {
  double P = normFlag(Args);
  size_t Count = intAtLeast(Args, "sentences", 3, 0);
  std::string Verifier = Args.get("verifier", "fast");
  verify::JobMethod Method;
  if (!verify::parseJobMethod(Verifier, Method))
    throw badArgument("--verifier must be fast, precise, combined, "
                      "crown-baf or crown-backward, got '" +
                      Verifier + "'");
  bool IsCrown = Method == verify::JobMethod::CrownBaF ||
                 Method == verify::JobMethod::CrownBackward;
  double FixedEps = Args.getDouble("eps", 0.0);
  if (Args.has("eps") && FixedEps <= 0.0)
    throw badArgument("--eps must be positive");
  long Seed = Args.getInt("seed", 2);
  std::string ProfileOut = Args.get("profile-out");
  std::string CertOut = Args.get("cert-out");
  if (IsCrown && (!ProfileOut.empty() || !CertOut.empty()))
    throw badArgument("--profile-out and --cert-out need a DeepT verifier "
                      "(fast, precise or combined)");
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus = modelCorpus(Args, "sst", Model);
  size_t Word = wordFlag(Args, Corpus);

  support::AppendFile ProfileFile;
  if (!ProfileOut.empty()) {
    support::Error Err;
    if (!ProfileFile.open(ProfileOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.what());
      return support::exitCodeFor(Err.code());
    }
  }
  support::AppendFile CertFile;
  if (!CertOut.empty()) {
    support::Error Err;
    if (!CertFile.open(CertOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.what());
      return support::exitCodeFor(Err.code());
    }
  }
  verify::PrecisionProfile Prof;
  Prof.Norm = Args.get("norm", "l2");
  Prof.Method = Verifier;
  verify::CertificateBuilder Cert;
  Cert.Data.Method = Verifier;
  Cert.Data.Norm = Args.get("norm", "l2");
  Cert.Data.P = P;

  verify::ObserverList Observers;
  if (ProfileFile.isOpen())
    Observers.push_back(&Prof);
  if (CertFile.isOpen())
    Observers.push_back(&Cert);

  size_t SentenceIdx = 0;
  // Margin of one query; every DeepT margin computation appends a
  // profile line when --profile-out is set (search mode profiles each
  // probe, so the JSONL shows how precision evolves along the search).
  auto MarginAt = [&](const data::Sentence &S, double R) -> double {
    verify::JobSpec Query;
    Query.Tokens = S.Tokens;
    Query.TrueClass = S.Label;
    Query.Word = Word;
    Query.P = P;
    double M = verify::probeMargin(Model, Query, Method, R, Observers);
    if (ProfileFile.isOpen()) {
      Prof.Query = "s" + std::to_string(SentenceIdx) + "-w" +
                   std::to_string(Word);
      Prof.Eps = R;
      ProfileFile.append(Prof.toJsonLine() + "\n", false);
    }
    if (CertFile.isOpen()) {
      Cert.Data.Query = "s" + std::to_string(SentenceIdx) + "-w" +
                        std::to_string(Word);
      std::string Line = Cert.Data.toJson() + "\n";
      support::Error Err;
      if (!CertFile.append(Line, false, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.what());
      } else {
        auto &MR = support::Metrics::global();
        MR.counter("cert.emitted").add(1.0);
        MR.counter("cert.bytes").add(static_cast<double>(Line.size()));
      }
    }
    return M;
  };

  support::Rng Rng(Seed);
  size_t Done = 0;
  while (Done < Count) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label || Word >= S.Tokens.size())
      continue;
    ++Done;
    SentenceIdx = Done;
    double Seconds = 0.0;
    if (FixedEps > 0.0) {
      double M;
      {
        support::ScopedAccum A(Seconds);
        M = MarginAt(S, FixedEps);
      }
      std::printf("sentence %zu (%zu words, %s): margin %.5g at %s eps "
                  "%.5g around word %zu -> %s  (%.2f s, verifier %s)\n",
                  Done, S.Tokens.size(), S.Label ? "positive" : "negative",
                  M, Args.get("norm", "l2").c_str(), FixedEps, Word,
                  M > 0.0 ? "CERTIFIED" : "falsified", Seconds,
                  Verifier.c_str());
      continue;
    }
    double R;
    {
      support::ScopedAccum A(Seconds);
      R = verify::certifiedRadius(
          [&](double Radius) { return MarginAt(S, Radius) > 0.0; });
    }
    std::printf("sentence %zu (%zu words, %s): certified %s radius %.5g "
                "around word %zu  (%.2f s, verifier %s)\n",
                Done, S.Tokens.size(), S.Label ? "positive" : "negative",
                Args.get("norm", "l2").c_str(), R, Word, Seconds,
                Verifier.c_str());
  }
  return 0;
}

int cmdSynonym(const ArgParse &Args) {
  size_t Count = intAtLeast(Args, "count", 10, 0);
  long Seed = Args.getInt("seed", 3);
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus = modelCorpus(Args, "synonym", Model);
  verify::VerifierConfig Cfg;
  Cfg.NoiseReductionBudget = 600;
  verify::DeepTVerifier V(Model, Cfg);
  support::Rng Rng(Seed);
  size_t Certified = 0, Done = 0;
  while (Done < Count) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label)
      continue;
    ++Done;
    size_t Combos = attack::countSynonymCombinations(Corpus, S);
    double Seconds = 0.0;
    bool Ok;
    {
      support::ScopedAccum A(Seconds);
      Ok = V.certifySynonymBox(Corpus, S, S.Label);
    }
    Certified += Ok;
    std::printf("sentence %zu: %zu combinations -> %s (%.2f s)\n", Done,
                Combos, Ok ? "CERTIFIED" : "not certified", Seconds);
  }
  std::printf("certified %zu / %zu sentences\n", Certified, Done);
  return 0;
}

int cmdAttack(const ArgParse &Args) {
  double P = normFlag(Args);
  long Seed = Args.getInt("seed", 4);
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus = modelCorpus(Args, "sst", Model);
  size_t Word = wordFlag(Args, Corpus);
  support::Rng Rng(Seed);
  data::Sentence S;
  do {
    S = Corpus.sampleSentence(Rng);
  } while (Model.classify(S.Tokens) != S.Label || Word >= S.Tokens.size());
  double Seconds = 0.0;
  double R;
  {
    support::ScopedAccum A(Seconds);
    R = attack::minimalAdversarialRadiusTransformer(Model, S.Tokens, Word,
                                                    P, S.Label);
  }
  std::printf("smallest adversarial %s radius found by PGD around word "
              "%zu: %.5g (%.2f s)\n",
              Args.get("norm", "l2").c_str(), Word, R, Seconds);
  return 0;
}

/// The operator-facing end-of-run health line: degraded IO (certificate
/// write failures, store records dropped for CRC mismatch), without
/// scraping --stats-json.
void printHealthLine() {
  support::Metrics &M = support::Metrics::global();
  std::printf("health: %.0f cert write failures, %.0f store crc drops\n",
              M.counterValue("cert.write_failures"),
              M.counterValue("store.crc_dropped"));
}

int cmdBatch(const ArgParse &Args) {
  verify::SchedulerOptions SO;
  SO.DefaultDeadlineMs = intAtLeast(Args, "deadline-ms", 0, 0);
  std::string JobsPath = Args.get("jobs");
  std::string OutPath = Args.get("out");
  if (JobsPath.empty() || OutPath.empty())
    throw badArgument("batch needs --jobs FILE.json and --out FILE.jsonl");
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus = modelCorpus(Args, "sst", Model);

  verify::JobQueue Queue;
  std::string Err;
  if (!verify::JobQueue::fromJsonFile(JobsPath, &Corpus, Queue, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }

  SO.JsonlPath = OutPath;
  SO.Resume = Args.has("resume");
  SO.Fsync = Args.has("fsync");
  SO.ProfileJsonlPath = Args.get("profile-out");
  SO.CertDir = Args.get("cert-dir");
  if (!SO.CertDir.empty())
    ::mkdir(SO.CertDir.c_str(), 0755); // existing directory is fine

  verify::Scheduler Sched(Model, SO);
  support::Timer Timer;
  std::vector<verify::JobResult> Results;
  try {
    Results = Sched.run(Queue);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return support::exitCodeFor(support::codeOf(E));
  }
  double Seconds = Timer.seconds();

  size_t Counts[4] = {0, 0, 0, 0};
  size_t Certified = 0;
  for (const verify::JobResult &R : Results) {
    ++Counts[static_cast<size_t>(R.Status)];
    Certified += R.Certified;
  }
  size_t Ran = Results.size() - Counts[3];
  std::printf("batch: %zu jobs (%zu ok, %zu degraded, %zu error, "
              "%zu skipped), %zu certified\n",
              Results.size(), Counts[0], Counts[1], Counts[2], Counts[3],
              Certified);
  std::printf("%.2f s wall, %.1f jobs/s on %zu threads -> %s\n", Seconds,
              Ran > 0 && Seconds > 0 ? static_cast<double>(Ran) / Seconds
                                     : 0.0,
              support::ThreadPool::global().threadCount(), OutPath.c_str());
  printHealthLine();
  return 0;
}

int cmdInfo(const ArgParse &Args) {
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  const nn::TransformerConfig &C = Model.Config;
  size_t Params = 0;
  for (const tensor::Matrix *M : Model.parameters())
    Params += M->size();
  std::printf("layers:        %zu\n", C.NumLayers);
  std::printf("embedding dim: %zu\n", C.EmbedDim);
  std::printf("heads:         %zu (head dim %zu)\n", C.NumHeads,
              C.headDim());
  std::printf("hidden dim:    %zu\n", C.HiddenDim);
  std::printf("layer norm:    %s\n",
              C.LayerNormStdDiv ? "standard (with std division)"
                                : "paper default (no std division)");
  std::printf("vocab size:    %zu\n", C.VocabSize);
  std::printf("parameters:    %zu (plus frozen embeddings)\n", Params);
  return 0;
}

/// One subcommand: its entry point and every flag it reads. Any other
/// flag, apart from the global execution and observability ones, is a
/// typo that would otherwise be silently ignored.
struct Command {
  const char *Name;
  int (*Run)(const ArgParse &);
  std::vector<std::string> Flags;
};

const Command Commands[] = {
    {"train",
     cmdTrain,
     {"out", "corpus", "embed", "layers", "heads", "hidden", "steps",
      "std-layernorm", "robust", "seed"}},
    {"certify",
     cmdCertify,
     {"model", "corpus", "norm", "word", "sentences", "verifier", "eps",
      "profile-out", "cert-out", "seed"}},
    {"synonym", cmdSynonym, {"model", "corpus", "count", "seed"}},
    {"attack", cmdAttack, {"model", "corpus", "norm", "word", "seed"}},
    {"batch",
     cmdBatch,
     {"model", "jobs", "out", "corpus", "deadline-ms", "resume", "fsync",
      "profile-out", "cert-dir"}},
    {"info", cmdInfo, {"model"}},
};

const char *const GlobalFlags[] = {"threads", "isa", "trace-out",
                                   "stats-json"};

/// Writes the metrics registry (plus which command ran and the pool's
/// thread count) to \p Path.
bool writeStatsJson(const std::string &Path, const std::string &Cmd) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << "{\"command\":\"" << support::jsonEscape(Cmd) << "\",\"threads\":"
      << support::ThreadPool::global().threadCount() << ",\"isa\":\""
      << tensor::isaName(tensor::currentIsa())
      << "\",\"metrics\":" << support::Metrics::global().toJson() << "}\n";
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv, {"std-layernorm", "robust", "resume", "fsync"});
  if (Args.positional().empty())
    return usage();
  const std::string &Cmd = Args.positional().front();
  const Command *C = nullptr;
  for (const Command &Entry : Commands)
    if (Cmd == Entry.Name)
      C = &Entry;
  if (!C) {
    support::Error Err(support::ErrorCode::BadArgument, "cli.command",
                       "unknown command '" + Cmd + "'");
    std::fprintf(stderr, "error: %s\n", Err.what());
    return usage();
  }
  // Reject misspelled flags before any work (model loads included).
  std::vector<std::string> Known = C->Flags;
  Known.insert(Known.end(), std::begin(GlobalFlags), std::end(GlobalFlags));
  std::vector<std::string> Unknown = Args.unknownFlags(Known);
  if (!Unknown.empty()) {
    std::string Names;
    for (const std::string &Name : Unknown)
      Names += (Names.empty() ? "--" : ", --") + Name;
    support::Error Err(support::ErrorCode::BadArgument, "cli.flags",
                       "unknown flag " + Names + " for " + Cmd +
                           " (see deept_cli with no arguments)");
    std::fprintf(stderr, "error: %s\n", Err.what());
    return support::exitCodeFor(Err.code());
  }
  // A value-taking flag given last, or followed by another flag, would
  // otherwise read as unset (`--cert-dir` last: no certificates).
  if (!Args.missingValues().empty()) {
    support::Error Err = badArgument(
        "--" + Args.missingValues().front() + " expects a value");
    std::fprintf(stderr, "error: %s\n", Err.what());
    return support::exitCodeFor(Err.code());
  }

  std::string TraceOut = Args.get("trace-out");
  std::string StatsOut = Args.get("stats-json");
  if (!TraceOut.empty())
    support::Trace::setEnabled(true);
  if (Args.has("threads")) {
    size_t Threads = 0;
    std::string Err;
    if (!support::parseThreadCount(Args.get("threads"), Threads, &Err)) {
      std::fprintf(stderr, "error: --threads %s\n", Err.c_str());
      return 2;
    }
    support::ThreadPool::global().setThreadCount(Threads);
  }
  if (Args.has("isa")) {
    tensor::Isa I = tensor::Isa::Scalar;
    std::string Err;
    if (!tensor::parseIsa(Args.get("isa"), I, &Err)) {
      std::fprintf(stderr, "error: --isa %s\n", Err.c_str());
      return 2;
    }
    if (!tensor::setIsa(I, &Err)) {
      std::fprintf(stderr, "error: --isa %s\n", Err.c_str());
      return 2;
    }
  }

  int Rc;
  try {
    Rc = C->Run(Args);
  } catch (const std::exception &E) {
    // Uncaught failures still leave with their taxonomy's exit class
    // (5 for anything unclassified) instead of a crash.
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = support::exitCodeFor(support::codeOf(E));
  }

  if (!TraceOut.empty()) {
    if (support::Trace::writeChromeJson(TraceOut))
      std::fprintf(stderr, "wrote %zu trace events to %s\n%s",
                   support::Trace::eventCount(), TraceOut.c_str(),
                   support::Trace::selfTimeSummary().c_str());
    else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   TraceOut.c_str());
      Rc = Rc ? Rc : 1;
    }
  }
  if (!StatsOut.empty()) {
    if (!writeStatsJson(StatsOut, Cmd)) {
      std::fprintf(stderr, "error: cannot write stats to %s\n",
                   StatsOut.c_str());
      Rc = Rc ? Rc : 1;
    }
  }
  return Rc;
}
