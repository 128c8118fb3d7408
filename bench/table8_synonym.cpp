//===- bench/table8_synonym.cpp --------------------------------*- C++ -*-===//
//
// Table 8: robustness certification against synonym attacks (threat
// model T2) on a 3-layer robustly trained network -- certified sentence
// counts and per-sentence time for DeepT-Fast and CROWN-BaF, compared
// with the cost of exhaustive enumeration (Section 6.7).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "attack/Enumeration.h"
#include "crown/CrownVerifier.h"
#include "verify/DeepT.h"

using namespace deept;
using namespace deept::bench;

int main(int Argc, char **Argv) {
  deept::bench::applyThreadFlags(Argc, Argv);
  printHeader("Table 8: certification against synonym attacks (T2)",
              "PLDI'21 Table 8");

  data::SyntheticCorpus Corpus(data::CorpusConfig::synonymRich(24));
  nn::TransformerModel Model = synonymRobustModel(Corpus);

  support::Rng AccRng(46);
  auto Holdout = Corpus.sampleDataset(300, AccRng);
  std::printf("accuracy: %.1f%%\n\n", 100.0 * nn::accuracy(Model, Holdout));

  // Evaluation set: correctly classified sentences with a combination
  // count large enough that enumeration is the expensive option (the
  // paper uses >= 32000 combinations).
  const size_t MinCombos = 1024;
  support::Rng Rng(0x5e7);
  std::vector<data::Sentence> Eval;
  while (Eval.size() < 40) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label)
      continue;
    if (attack::countSynonymCombinations(Corpus, S) < MinCombos)
      continue;
    Eval.push_back(std::move(S));
  }

  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 600;
  verify::DeepTVerifier DeepT(Model, VC);
  crown::CrownConfig CF;
  CF.Mode = crown::CrownMode::BaF;
  crown::CrownVerifier BaF(Model, CF);

  size_t DeepTCert = 0, BaFCert = 0;
  double DeepTTime = 0, BaFTime = 0;
  double MeanCombos = 0;
  for (const data::Sentence &S : Eval) {
    MeanCombos += static_cast<double>(
        attack::countSynonymCombinations(Corpus, S, size_t(1) << 32));
    {
      support::ScopedAccum A(DeepTTime);
      DeepTCert += DeepT.certifySynonymBox(Corpus, S, S.Label);
    }
    {
      support::ScopedAccum A(BaFTime);
      BaFCert += BaF.certifySynonymBox(Corpus, S, S.Label);
    }
  }
  MeanCombos /= Eval.size();

  // Enumeration cost on a capped subset extrapolates the full cost.
  support::Timer TE;
  size_t EnumEvaluated = 0;
  for (size_t I = 0; I < 5; ++I) {
    auto R = attack::enumerateSynonymAttack(Model, Corpus, Eval[I],
                                            Eval[I].Label, 2000);
    EnumEvaluated += R.Evaluated;
  }
  double PerCombo = TE.seconds() / static_cast<double>(EnumEvaluated);

  support::Table T({"Verifier", "Certified", "Rate", "t[s]/sentence"});
  auto Row = [&](const char *Name, size_t Cert, double Time) {
    char Rate[16];
    std::snprintf(Rate, sizeof(Rate), "%.0f%%",
                  100.0 * Cert / Eval.size());
    T.addRow({Name, std::to_string(Cert) + "/" +
                        std::to_string(Eval.size()),
              Rate, support::formatFixed(Time / Eval.size(), 3)});
  };
  Row("DeepT-Fast", DeepTCert, DeepTTime);
  Row("CROWN-BaF", BaFCert, BaFTime);
  T.print();
  writeBenchJson("table8_synonym", T);
  std::printf("\nmean combinations per sentence: %.0f\n", MeanCombos);
  std::printf("enumeration cost: %.2e s/combination -> %.1f s/sentence "
              "(%.0fx DeepT-Fast)\n",
              PerCombo, PerCombo * MeanCombos,
              PerCombo * MeanCombos / (DeepTTime / Eval.size()));
  std::printf("\nPaper shape: both verifiers certify the vast majority of "
              "sentences (89%% / 88%%) in ~2.5 s while enumeration needs 2-3 "
              "orders of magnitude more time.\n");
  return 0;
}
