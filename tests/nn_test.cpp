//===- tests/nn_test.cpp --------------------------------------*- C++ -*-===//
//
// Tests for the Transformer / feed-forward models, training loops, the
// synthetic datasets and model serialization.
//
//===----------------------------------------------------------------------===//

#include "nn/Serialize.h"
#include "nn/Train.h"
#include "nn/Transformer.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

using namespace deept;
using namespace deept::nn;
using tensor::Matrix;

namespace {

TransformerConfig smallConfig(size_t Layers = 2) {
  TransformerConfig C;
  C.MaxLen = 12;
  C.EmbedDim = 16;
  C.NumHeads = 2;
  C.HiddenDim = 16;
  C.NumLayers = Layers;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Synthetic corpus
//===----------------------------------------------------------------------===//

TEST(SyntheticCorpus, Deterministic) {
  data::CorpusConfig C = data::CorpusConfig::sstLike(16);
  data::SyntheticCorpus A(C), B(C);
  EXPECT_EQ(A.vocabSize(), B.vocabSize());
  EXPECT_TRUE(tensor::allClose(A.embeddings(), B.embeddings(), 0.0));
}

TEST(SyntheticCorpus, SynonymsShareConceptAndAreClose) {
  data::CorpusConfig C = data::CorpusConfig::sstLike(16);
  data::SyntheticCorpus Corpus(C);
  for (size_t W = 0; W < Corpus.vocabSize(); ++W) {
    for (size_t S : Corpus.synonymsOf(W)) {
      EXPECT_EQ(Corpus.conceptOf(S), Corpus.conceptOf(W));
      EXPECT_NE(S, W);
      // Synonym embeddings are within 2 * ClusterRadius in l-infinity.
      for (size_t I = 0; I < C.EmbedDim; ++I)
        EXPECT_LE(std::fabs(Corpus.embeddings().at(S, I) -
                            Corpus.embeddings().at(W, I)),
                  2.0 * C.ClusterRadius + 1e-12);
    }
  }
}

TEST(SyntheticCorpus, SentencesAreLabelledByPolaritySum) {
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  support::Rng Rng(5);
  for (int I = 0; I < 50; ++I) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    EXPECT_GE(S.Tokens.size(), Corpus.config().MinLen);
    EXPECT_LE(S.Tokens.size(), Corpus.config().MaxLen);
    double Sum = 0.0;
    for (size_t T : S.Tokens)
      Sum += Corpus.polarityOf(T);
    EXPECT_EQ(S.Label, Sum > 0 ? 1u : 0u);
    EXPECT_GE(std::fabs(Sum), Corpus.config().MinMargin);
  }
}

TEST(SyntheticCorpus, SwapSynonymsPreservesConcepts) {
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  support::Rng Rng(6);
  data::Sentence S = Corpus.sampleSentence(Rng);
  data::Sentence Orig = S;
  Corpus.swapSynonyms(S, 1.0, Rng);
  ASSERT_EQ(S.Tokens.size(), Orig.Tokens.size());
  for (size_t I = 0; I < S.Tokens.size(); ++I)
    EXPECT_EQ(Corpus.conceptOf(S.Tokens[I]), Corpus.conceptOf(Orig.Tokens[I]));
}

TEST(StrokeImages, ShapesAndLabels) {
  support::Rng Rng(7);
  auto Images = data::makeStrokeImages(40, Rng, 8);
  ASSERT_EQ(Images.size(), 40u);
  std::set<size_t> Labels;
  for (const auto &Ex : Images) {
    EXPECT_EQ(Ex.Pixels.size(), 64u);
    for (size_t I = 0; I < 64; ++I) {
      EXPECT_GE(Ex.Pixels.flat(I), 0.0);
      EXPECT_LE(Ex.Pixels.flat(I), 1.0);
    }
    Labels.insert(Ex.Label);
  }
  EXPECT_EQ(Labels.size(), 2u); // both classes occur
}

//===----------------------------------------------------------------------===//
// Transformer model
//===----------------------------------------------------------------------===//

TEST(Transformer, TapeForwardMatchesConcreteForward) {
  // The training path (autograd) and the verification-facing concrete
  // forward must agree exactly.
  support::Rng Rng(10);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  for (bool StdDiv : {false, true}) {
    TransformerConfig C = smallConfig();
    C.LayerNormStdDiv = StdDiv;
    TransformerModel M = TransformerModel::init(C, Corpus.embeddings(), Rng);
    data::Sentence S = Corpus.sampleSentence(Rng);
    Matrix X = M.embed(S.Tokens);
    Matrix Concrete = M.forwardEmbeddings(X);

    autograd::Tape T;
    auto Params = M.pushParams(T);
    autograd::ValueId Logits = M.buildForward(T, T.input(X), Params);
    EXPECT_TRUE(tensor::allClose(T.value(Logits), Concrete, 1e-9));
  }
}

TEST(Transformer, TrainingLearnsTheSentimentTask) {
  support::Rng Rng(11);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  TransformerModel M =
      TransformerModel::init(smallConfig(), Corpus.embeddings(), Rng);
  support::Rng DataRng(12);
  auto Train = Corpus.sampleDataset(256, DataRng);
  auto Test = Corpus.sampleDataset(128, DataRng);
  double Before = accuracy(M, Test);
  TrainOptions Opts;
  Opts.Steps = 120;
  Opts.BatchSize = 8;
  trainTransformer(M, Corpus, Train, Opts);
  double After = accuracy(M, Test);
  EXPECT_GT(After, 0.8) << "before-training accuracy was " << Before;
}

TEST(Transformer, EmbedAddsPositionalEncoding) {
  support::Rng Rng(13);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  TransformerModel M =
      TransformerModel::init(smallConfig(), Corpus.embeddings(), Rng);
  Matrix X = M.embed({3, 3});
  // Same token at two positions differs exactly by the positional delta.
  for (size_t C = 0; C < 16; ++C)
    EXPECT_NEAR(X.at(1, C) - X.at(0, C),
                M.Positional.at(1, C) - M.Positional.at(0, C), 1e-12);
}

TEST(Transformer, EmbedRejectsLongSequencesAndUnknownTokens) {
  support::Rng Rng(13);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  TransformerModel M =
      TransformerModel::init(smallConfig(), Corpus.embeddings(), Rng);
  auto CodeOf = [&](const std::vector<size_t> &Tokens) {
    try {
      M.embed(Tokens);
    } catch (const support::Error &E) {
      EXPECT_EQ(E.site(), "nn.embed");
      return E.code();
    }
    return support::ErrorCode::Ok;
  };
  const size_t Vocab = M.Embedding.rows();
  EXPECT_EQ(CodeOf(std::vector<size_t>(M.Config.MaxLen, 0)),
            support::ErrorCode::Ok);
  EXPECT_EQ(CodeOf(std::vector<size_t>(M.Config.MaxLen + 1, 0)),
            support::ErrorCode::JobInvalid);
  EXPECT_EQ(CodeOf({0, Vocab - 1}), support::ErrorCode::Ok);
  EXPECT_EQ(CodeOf({0, Vocab}), support::ErrorCode::JobInvalid);
  EXPECT_EQ(CodeOf({size_t(-1)}), support::ErrorCode::JobInvalid);
}

TEST(Transformer, SerializeRoundTrip) {
  support::Rng Rng(14);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  TransformerConfig C = smallConfig(3);
  C.LayerNormStdDiv = true;
  TransformerModel M = TransformerModel::init(C, Corpus.embeddings(), Rng);
  std::string Path = ::testing::TempDir() + "/deept_roundtrip.dptm";
  ASSERT_TRUE(saveModel(Path, M));
  TransformerModel L;
  ASSERT_TRUE(loadModel(Path, L));
  EXPECT_EQ(L.Config.NumLayers, 3u);
  EXPECT_TRUE(L.Config.LayerNormStdDiv);
  data::Sentence S;
  S.Tokens = {1, 4, 2};
  EXPECT_TRUE(tensor::allClose(M.forwardEmbeddings(M.embed(S.Tokens)),
                               L.forwardEmbeddings(L.embed(S.Tokens)),
                               1e-12));
  std::remove(Path.c_str());
}

TEST(Transformer, CachedTrainingReusesDisk) {
  support::Rng Rng(15);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  std::string Dir = ::testing::TempDir() + "/deept_cache_test";
  int Calls = 0;
  auto TrainFn = [&] {
    ++Calls;
    support::Rng R(15);
    return TransformerModel::init(smallConfig(), Corpus.embeddings(), R);
  };
  TransformerModel A = getOrTrainCached(Dir, "m", TrainFn);
  TransformerModel B = getOrTrainCached(Dir, "m", TrainFn);
  EXPECT_EQ(Calls, 1);
  EXPECT_TRUE(tensor::allClose(A.ClsW, B.ClsW, 0.0));
  std::remove((Dir + "/m.dptm").c_str());
}

//===----------------------------------------------------------------------===//
// Feed-forward net and Vision Transformer
//===----------------------------------------------------------------------===//

TEST(FeedForwardNet, TapeForwardMatchesConcrete) {
  support::Rng Rng(16);
  FeedForwardNet N = FeedForwardNet::init({8, 10, 5, 2}, Rng);
  Matrix X = Matrix::randn(1, 8, Rng);
  autograd::Tape T;
  auto Params = N.pushParams(T);
  autograd::ValueId Out = N.buildForward(T, T.input(X), Params);
  EXPECT_TRUE(tensor::allClose(T.value(Out), N.forward(X), 1e-12));
}

TEST(FeedForwardNet, LearnsStrokeImages) {
  support::Rng Rng(17);
  FeedForwardNet N = FeedForwardNet::init({64, 10, 50, 10, 2}, Rng);
  support::Rng DataRng(18);
  auto Train = data::makeStrokeImages(256, DataRng);
  auto Test = data::makeStrokeImages(128, DataRng);
  TrainOptions Opts;
  Opts.Steps = 150;
  Opts.BatchSize = 8;
  trainFeedForward(N, Train, Opts);
  EXPECT_GT(accuracy(N, Test), 0.9);
}

TEST(VisionTransformer, PatchifyLayout) {
  support::Rng Rng(19);
  TransformerConfig C = smallConfig(1);
  VisionTransformer V = VisionTransformer::init(8, 4, C, Rng);
  Matrix Pixels(1, 64);
  for (size_t I = 0; I < 64; ++I)
    Pixels.flat(I) = static_cast<double>(I);
  Matrix P = V.patchify(Pixels);
  ASSERT_EQ(P.rows(), 4u);
  ASSERT_EQ(P.cols(), 16u);
  // Patch 0 is the top-left 4x4 block.
  EXPECT_DOUBLE_EQ(P.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(P.at(0, 5), 9.0);  // row 1, col 1 -> pixel 8+1
  // Patch 1 is the top-right block.
  EXPECT_DOUBLE_EQ(P.at(1, 0), 4.0);
  // Patch 2 is the bottom-left block.
  EXPECT_DOUBLE_EQ(P.at(2, 0), 32.0);
}

TEST(VisionTransformer, TapeForwardMatchesConcrete) {
  support::Rng Rng(20);
  TransformerConfig C = smallConfig(1);
  VisionTransformer V = VisionTransformer::init(8, 4, C, Rng);
  support::Rng DataRng(21);
  auto Images = data::makeStrokeImages(2, DataRng);
  autograd::Tape T;
  auto Params = V.pushParams(T);
  autograd::ValueId Out =
      V.buildForward(T, T.input(Images[0].Pixels), Params);
  EXPECT_TRUE(
      tensor::allClose(T.value(Out), V.forwardPixels(Images[0].Pixels), 1e-9));
}

TEST(VisionTransformer, LearnsStrokeImages) {
  support::Rng Rng(22);
  TransformerConfig C = smallConfig(1);
  VisionTransformer V = VisionTransformer::init(8, 4, C, Rng);
  support::Rng DataRng(23);
  auto Train = data::makeStrokeImages(256, DataRng);
  auto Test = data::makeStrokeImages(96, DataRng);
  TrainOptions Opts;
  Opts.Steps = 120;
  Opts.BatchSize = 8;
  trainVisionTransformer(V, Train, Opts);
  EXPECT_GT(accuracy(V, Test), 0.85);
}
