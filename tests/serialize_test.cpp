//===- tests/serialize_test.cpp - Hardened serialization tests -*- C++ -*-===//
//
// The corrupted-model corpus: every mangled .dptm variant must fail with
// a typed support::Error -- never crash, never silently succeed. Also
// covers the config validator, the crash-safe IO helpers, the model
// cache (a corrupt file throws, never retrains) and the guard that every
// model the benches use loads from the tracked cache.
//
//===----------------------------------------------------------------------===//

#include "data/SyntheticCorpus.h"
#include "nn/Serialize.h"
#include "nn/Transformer.h"
#include "support/Crc.h"
#include "support/Error.h"
#include "support/Io.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

using namespace deept;
using namespace deept::nn;
using support::Error;
using support::ErrorCode;

namespace {

TransformerConfig tinyConfig() {
  TransformerConfig C;
  C.MaxLen = 8;
  C.EmbedDim = 16;
  C.NumHeads = 2;
  C.HiddenDim = 16;
  C.NumLayers = 1;
  return C;
}

TransformerModel tinyModel() {
  support::Rng Rng(0xc0de);
  data::SyntheticCorpus Corpus(data::CorpusConfig::sstLike(16));
  return TransformerModel::init(tinyConfig(), Corpus.embeddings(), Rng);
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Bytes of a freshly saved tiny model -- the base every corpus variant
/// mangles. v2 layout: 8B magic, 7 x 8B config fields, 8B lnEps (header
/// ends at 72), then per-matrix 16B shape header + payload, then the 8B
/// CRC trailer.
const std::string &validBytes() {
  static const std::string Bytes = [] {
    std::string Path = ::testing::TempDir() + "/serialize_base.dptm";
    TransformerModel M = tinyModel();
    EXPECT_TRUE(saveModel(Path, M));
    std::string B = readFileBytes(Path);
    std::remove(Path.c_str());
    return B;
  }();
  return Bytes;
}

struct Variant {
  const char *Name;
  std::string Bytes;
};

/// The corrupted-model corpus: truncations at every structural boundary,
/// bit flips in the header / payload / trailer, magic and version
/// mangles (the retired trailer-less v1 among them), implausible
/// dimensions and trailing garbage.
std::vector<Variant> corruptedCorpus() {
  const std::string &V = validBytes();
  auto Mut = [&](size_t Off, uint64_t Val) {
    std::string B = V;
    std::memcpy(&B[Off], &Val, 8);
    return B;
  };
  auto Flip = [&](size_t Off, unsigned char Mask) {
    std::string B = V;
    B[Off] = static_cast<char>(static_cast<unsigned char>(B[Off]) ^ Mask);
    return B;
  };
  std::string NotAModel = V;
  std::memcpy(&NotAModel[0], "GARBAGE!", 8);
  std::string FutureVersion = V;
  FutureVersion[0] = '3'; // DPTM0002 -> DPTM0003 (little-endian byte 0)
  std::string LegacyV1 = V.substr(0, V.size() - 8); // v1 had no trailer
  LegacyV1[0] = '1';

  return {
      {"empty", ""},
      {"half-magic", V.substr(0, 4)},
      {"magic-only", V.substr(0, 8)},
      {"mid-header", V.substr(0, 40)},
      {"mid-lneps", V.substr(0, 68)},
      {"mid-matrix-header", V.substr(0, 76)},
      {"mid-payload", V.substr(0, V.size() / 2)},
      {"missing-trailer", V.substr(0, V.size() - 8)},
      {"last-byte-gone", V.substr(0, V.size() - 1)},
      {"magic-bit-flip", Flip(5, 0x01)},
      {"future-version", FutureVersion},
      {"legacy-v1", LegacyV1},
      {"not-a-model", NotAModel},
      {"zero-vocab", Mut(8, 0)},
      {"huge-vocab", Mut(8, uint64_t(1) << 40)},
      {"zero-embed-dim", Mut(24, 0)},
      {"heads-dont-divide", Mut(32, 5)},
      {"huge-layer-count", Mut(48, uint64_t(1) << 32)},
      {"bad-layernorm-flag", Mut(56, 7)},
      {"matrix-shape-mangled", Mut(72, 12345)},
      {"payload-bit-flip", Flip(200, 0x01)},
      {"trailer-bit-flip", Flip(V.size() - 8, 0x01)},
      {"trailing-garbage", V + "junk after the trailer"},
      {"all-garbage", std::string(256, 'x')},
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Corrupted-model corpus
//===----------------------------------------------------------------------===//

TEST(Serialize, CorruptedModelCorpusFailsTyped) {
  std::string Path = ::testing::TempDir() + "/serialize_corpus.dptm";
  for (const Variant &Var : corruptedCorpus()) {
    writeFileBytes(Path, Var.Bytes);
    TransformerModel M;
    Error Err;
    EXPECT_FALSE(loadModel(Path, M, &Err)) << Var.Name;
    EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt)
        << Var.Name << " gave code " << support::errorCodeName(Err.code())
        << ": " << Err.what();
    // A rejected file must leave the destination model untouched.
    EXPECT_TRUE(M.Layers.empty()) << Var.Name;
  }
  std::remove(Path.c_str());
}

TEST(Serialize, CrcCatchesPayloadBitFlip) {
  std::string Path = ::testing::TempDir() + "/serialize_crc.dptm";
  std::string B = validBytes();
  B[B.size() / 2] = static_cast<char>(B[B.size() / 2] ^ 0x02);
  writeFileBytes(Path, B);
  TransformerModel M;
  Error Err;
  EXPECT_FALSE(loadModel(Path, M, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt);
  std::remove(Path.c_str());
}

TEST(Serialize, MissingFileIsModelNotFound) {
  TransformerModel M;
  Error Err;
  EXPECT_FALSE(
      loadModel(::testing::TempDir() + "/no_such_model.dptm", M, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::ModelNotFound);
}

TEST(Serialize, FailedLoadLeavesDestinationUntouched) {
  std::string Good = ::testing::TempDir() + "/serialize_good.dptm";
  std::string Bad = ::testing::TempDir() + "/serialize_bad.dptm";
  writeFileBytes(Good, validBytes());
  writeFileBytes(Bad, validBytes().substr(0, validBytes().size() / 2));
  TransformerModel M;
  ASSERT_TRUE(loadModel(Good, M));
  Matrix Before = M.ClsW;
  Error Err;
  EXPECT_FALSE(loadModel(Bad, M, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt);
  EXPECT_TRUE(tensor::allClose(M.ClsW, Before, 0.0));
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

TEST(Serialize, NonFiniteWeightRejected) {
  // A NaN planted in the payload, with the CRC trailer recomputed over
  // the planted bytes, exercises the dedicated non-finite check rather
  // than the checksum. The first payload double sits at offset 88 (72B
  // header + 16B matrix shape).
  std::string B = validBytes();
  double NaN = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&B[88], &NaN, 8);
  support::Crc32 Crc;
  Crc.update(B.data() + 8, B.size() - 16);
  uint64_t Trailer = Crc.value();
  std::memcpy(&B[B.size() - 8], &Trailer, 8);
  std::string Path = ::testing::TempDir() + "/serialize_nan.dptm";
  writeFileBytes(Path, B);
  TransformerModel M;
  Error Err;
  EXPECT_FALSE(loadModel(Path, M, &Err));
  EXPECT_EQ(Err.code(), ErrorCode::ModelCorrupt);
  EXPECT_NE(std::string(Err.what()).find("non-finite"), std::string::npos)
      << Err.what();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Config validation
//===----------------------------------------------------------------------===//

TEST(Serialize, ValidateConfigBounds) {
  // tinyConfig leaves VocabSize to TransformerModel::init; the validator
  // needs the fully populated form.
  TransformerConfig Valid = tinyConfig();
  Valid.VocabSize = 100;
  std::string Why;
  EXPECT_TRUE(validateConfig(Valid, &Why)) << Why;

  auto Expect = [&](void (*Mangle)(TransformerConfig &),
                    const char *Needle) {
    TransformerConfig C = tinyConfig();
    C.VocabSize = 100;
    Mangle(C);
    std::string W;
    EXPECT_FALSE(validateConfig(C, &W));
    EXPECT_NE(W.find(Needle), std::string::npos) << W;
  };
  Expect([](TransformerConfig &C) { C.VocabSize = 0; }, "vocab");
  Expect([](TransformerConfig &C) { C.VocabSize = 1u << 30; }, "vocab");
  Expect([](TransformerConfig &C) { C.MaxLen = 0; }, "max length");
  Expect([](TransformerConfig &C) { C.EmbedDim = 1u << 20; }, "embedding");
  Expect([](TransformerConfig &C) { C.HiddenDim = 0; }, "hidden");
  Expect([](TransformerConfig &C) { C.NumLayers = 1u << 16; }, "layer");
  Expect([](TransformerConfig &C) { C.NumHeads = 3; }, "head");
  Expect([](TransformerConfig &C) { C.NumHeads = 0; }, "head");
  Expect(
      [](TransformerConfig &C) {
        C.LnEps = std::numeric_limits<double>::quiet_NaN();
      },
      "epsilon");
}

//===----------------------------------------------------------------------===//
// Model cache
//===----------------------------------------------------------------------===//

TEST(Serialize, CorruptCacheThrowsTypedAndKeepsTheFile) {
  std::string Dir = ::testing::TempDir() + "/serialize_cache_test";
  std::string Path = Dir + "/m.dptm";
  std::remove(Path.c_str());
  int Calls = 0;
  auto TrainFn = [&] {
    ++Calls;
    return tinyModel();
  };
  getOrTrainCached(Dir, "m", TrainFn); // cold cache: trains once
  EXPECT_EQ(Calls, 1);
  // A file that is there but does not load is a typed error: the cache
  // neither retrains nor rewrites it.
  const std::string Garbage = "definitely not a model";
  writeFileBytes(Path, Garbage);
  try {
    getOrTrainCached(Dir, "m", TrainFn);
    ADD_FAILURE() << "a corrupt cache file loaded";
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::ModelCorrupt) << E.what();
  }
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(readFileBytes(Path), Garbage);
  std::remove(Path.c_str());
}

/// The models the table benches load, by cache name. Each must be in the
/// tracked cache and load as it is: a missing or unloadable file would
/// make a bench train, and a file under the wrong name would make it
/// evaluate the wrong depth.
TEST(Serialize, EveryBenchModelLoadsFromTheTrackedCache) {
  std::vector<std::pair<std::string, size_t>> Models = {
      {"synonym_robust_m3", 3}};
  for (const char *Family : {"sst", "yelp", "small", "sstdiv", "wide"})
    for (size_t Layers : {3, 6, 12})
      Models.emplace_back(std::string(Family) + "_m" +
                              std::to_string(Layers),
                          Layers);
  ASSERT_EQ(Models.size(), 16u);
  for (const auto &[Name, Layers] : Models) {
    std::string Path =
        std::string(DEEPT_SOURCE_DIR) + "/deept-model-cache/" + Name + ".dptm";
    TransformerModel M;
    Error Err;
    if (!loadModel(Path, M, &Err)) {
      ADD_FAILURE() << Name << ": " << support::errorCodeName(Err.code())
                    << ": " << Err.what();
      continue;
    }
    EXPECT_EQ(M.Config.NumLayers, Layers) << Name;
    EXPECT_EQ(M.Layers.size(), Layers) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Crash-safe IO helpers
//===----------------------------------------------------------------------===//

TEST(Io, AtomicWriteCreatesAndReplaces) {
  std::string Path = ::testing::TempDir() + "/io_atomic.txt";
  ASSERT_TRUE(support::atomicWriteFile(Path, "first"));
  EXPECT_EQ(readFileBytes(Path), "first");
  ASSERT_TRUE(support::atomicWriteFile(Path, "second, longer"));
  EXPECT_EQ(readFileBytes(Path), "second, longer");
  uint64_t Size = 0;
  ASSERT_TRUE(support::fileSize(Path, Size));
  EXPECT_EQ(Size, 14u);
  std::remove(Path.c_str());
}

TEST(Io, AtomicWriteFailureLeavesTargetAlone) {
  Error Err;
  EXPECT_FALSE(support::atomicWriteFile(
      "/deept_no_such_dir_xyz/file.txt", "x", &Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
}

TEST(Io, AppendFileFramesRecordsAndReopens) {
  std::string Path = ::testing::TempDir() + "/io_append.jsonl";
  std::remove(Path.c_str());
  support::AppendFile F;
  ASSERT_TRUE(F.open(Path));
  EXPECT_TRUE(F.isOpen());
  ASSERT_TRUE(F.append("a\n", /*Fsync=*/false));
  ASSERT_TRUE(F.append("bb\n", /*Fsync=*/true));
  F.close();
  EXPECT_FALSE(F.isOpen());
  EXPECT_EQ(readFileBytes(Path), "a\nbb\n");
  // Reopening appends after the existing content.
  ASSERT_TRUE(F.open(Path));
  ASSERT_TRUE(F.append("c\n", false));
  F.close();
  EXPECT_EQ(readFileBytes(Path), "a\nbb\nc\n");
  ASSERT_TRUE(support::truncateFile(Path, 2));
  EXPECT_EQ(readFileBytes(Path), "a\n");
  std::remove(Path.c_str());
}

TEST(Io, FileSizeFailsOnMissingFile) {
  uint64_t Size = 99;
  EXPECT_FALSE(
      support::fileSize(::testing::TempDir() + "/io_no_file", Size));
}
