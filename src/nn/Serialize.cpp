//===- nn/Serialize.cpp ---------------------------------------*- C++ -*-===//

#include "nn/Serialize.h"

#include "support/Crc.h"
#include "support/Fault.h"
#include "support/Io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>

using namespace deept;
using namespace deept::nn;
using support::Error;
using support::ErrorCode;
using tensor::Matrix;

namespace {

// Little-endian "DPTM0002".
constexpr uint64_t MagicV2 = 0x4450544d30303032ULL;

/// Upper bounds a header field must satisfy before anything is allocated.
/// Generous (two orders of magnitude above the largest model the repo
/// trains) but small enough that a corrupt header cannot OOM the process.
constexpr uint64_t MaxVocab = 1u << 22;
constexpr uint64_t MaxLenBound = 1u << 14;
constexpr uint64_t MaxDim = 1u << 14;
constexpr uint64_t MaxLayers = 1u << 10;
constexpr uint64_t MaxMatrixElems = 1u << 27; // 1 GiB of doubles

/// Checksums use the shared support::Crc32 (support/Crc.h).
using support::Crc32;

/// Checksummed reader over an open file, tracking the bytes consumed so
/// truncation can be told apart from other corruption.
class Reader {
public:
  Reader(FILE *F, uint64_t FileBytes) : F(F), FileBytes(FileBytes) {}

  bool read(void *Out, size_t N) {
    DEEPT_FAULT_POINT("serialize.read");
    if (DEEPT_FAULT_IO_FAIL("serialize.read") ||
        std::fread(Out, 1, N, F) != N)
      return false;
    Crc.update(Out, N);
    Consumed += N;
    return true;
  }

  bool readU64(uint64_t &V) { return read(&V, 8); }

  /// Bytes left before the payload would run into the 8-byte CRC trailer.
  uint64_t remaining() const {
    uint64_t Used = Consumed + 8;
    return Used > FileBytes ? 0 : FileBytes - Used;
  }

  uint32_t crc() const { return Crc.value(); }

private:
  FILE *F;
  uint64_t FileBytes;
  uint64_t Consumed = 0;
  Crc32 Crc;
};

/// Matrices of a model in a fixed serialization order, paired with the
/// rows x cols shape the config dictates for each.
struct NamedMatrix {
  Matrix *M;
  size_t Rows, Cols;
};

std::vector<NamedMatrix> allMatrices(TransformerModel &M) {
  const TransformerConfig &C = M.Config;
  size_t E = C.EmbedDim, H = C.HiddenDim;
  std::vector<NamedMatrix> Out = {{&M.Embedding, C.VocabSize, E},
                                  {&M.Positional, C.MaxLen, E}};
  for (TransformerLayer &L : M.Layers) {
    NamedMatrix Block[] = {
        {&L.Wq, E, E},       {&L.Bq, 1, E},       {&L.Wk, E, E},
        {&L.Bk, 1, E},       {&L.Wv, E, E},       {&L.Bv, 1, E},
        {&L.Wo, E, E},       {&L.Bo, 1, E},       {&L.Ln1Gamma, 1, E},
        {&L.Ln1Beta, 1, E},  {&L.W1, E, H},       {&L.B1, 1, H},
        {&L.W2, H, E},       {&L.B2, 1, E},       {&L.Ln2Gamma, 1, E},
        {&L.Ln2Beta, 1, E}};
    Out.insert(Out.end(), std::begin(Block), std::end(Block));
  }
  NamedMatrix Tail[] = {{&M.PoolW, E, E},
                        {&M.PoolB, 1, E},
                        {&M.ClsW, E, 2},
                        {&M.ClsB, 1, 2}};
  Out.insert(Out.end(), std::begin(Tail), std::end(Tail));
  return Out;
}

bool corrupt(Error *Err, const std::string &Site, const std::string &Msg) {
  if (Err)
    *Err = Error(ErrorCode::ModelCorrupt, Site, Msg);
  return false;
}

} // namespace

bool deept::nn::validateConfig(const TransformerConfig &C, std::string *Why) {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (C.VocabSize == 0 || C.VocabSize > MaxVocab)
    return Fail("vocab size " + std::to_string(C.VocabSize) +
                " outside [1, " + std::to_string(MaxVocab) + "]");
  if (C.MaxLen == 0 || C.MaxLen > MaxLenBound)
    return Fail("max length " + std::to_string(C.MaxLen) + " outside [1, " +
                std::to_string(MaxLenBound) + "]");
  if (C.EmbedDim == 0 || C.EmbedDim > MaxDim)
    return Fail("embedding dim " + std::to_string(C.EmbedDim) +
                " outside [1, " + std::to_string(MaxDim) + "]");
  if (C.HiddenDim == 0 || C.HiddenDim > MaxDim)
    return Fail("hidden dim " + std::to_string(C.HiddenDim) +
                " outside [1, " + std::to_string(MaxDim) + "]");
  if (C.NumLayers == 0 || C.NumLayers > MaxLayers)
    return Fail("layer count " + std::to_string(C.NumLayers) +
                " outside [1, " + std::to_string(MaxLayers) + "]");
  if (C.NumHeads == 0 || C.NumHeads > C.EmbedDim ||
      C.EmbedDim % C.NumHeads != 0)
    return Fail("head count " + std::to_string(C.NumHeads) +
                " does not divide embedding dim " +
                std::to_string(C.EmbedDim));
  if (!std::isfinite(C.LnEps) || C.LnEps < 0)
    return Fail("layer-norm epsilon is not a finite non-negative number");
  return true;
}

bool deept::nn::saveModel(const std::string &Path,
                          const TransformerModel &Model,
                          support::Error *Err) {
  // Serialize into memory first; atomicWriteFile makes the file appear
  // all-or-nothing on disk.
  std::string Buf;
  auto Put = [&](const void *Data, size_t N) {
    Buf.append(static_cast<const char *>(Data), N);
  };
  auto PutU64 = [&](uint64_t V) { Put(&V, 8); };

  PutU64(MagicV2);
  const TransformerConfig &C = Model.Config;
  uint64_t Fields[] = {C.VocabSize, C.MaxLen,    C.EmbedDim,
                       C.NumHeads,  C.HiddenDim, C.NumLayers,
                       C.LayerNormStdDiv ? 1u : 0u};
  for (uint64_t V : Fields)
    PutU64(V);
  Put(&C.LnEps, sizeof(double));
  TransformerModel &Mutable = const_cast<TransformerModel &>(Model);
  for (const NamedMatrix &NM : allMatrices(Mutable)) {
    PutU64(NM.M->rows());
    PutU64(NM.M->cols());
    Put(NM.M->data(), NM.M->size() * sizeof(double));
  }
  // The CRC covers everything after the magic.
  Crc32 Crc;
  Crc.update(Buf.data() + 8, Buf.size() - 8);
  uint64_t Trailer = Crc.value();
  Buf.append(reinterpret_cast<const char *>(&Trailer), 8);

  DEEPT_FAULT_POINT("serialize.write");
  if (DEEPT_FAULT_IO_FAIL("serialize.write") ||
      !support::atomicWriteFile(Path, Buf, Err)) {
    if (Err && Err->code() == ErrorCode::Ok)
      *Err = Error(ErrorCode::IoError, "serialize.write",
                   "cannot write '" + Path + "'");
    return false;
  }
  return true;
}

bool deept::nn::loadModel(const std::string &Path, TransformerModel &Model,
                          support::Error *Err) {
  uint64_t FileBytes = 0;
  if (!support::fileSize(Path, FileBytes)) {
    if (Err)
      *Err = Error(ErrorCode::ModelNotFound, "serialize.open",
                   "no model file at '" + Path + "'");
    return false;
  }
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Err)
      *Err = Error(ErrorCode::IoError, "serialize.open",
                   "cannot open '" + Path + "'");
    return false;
  }
  struct Closer {
    FILE *F;
    ~Closer() { std::fclose(F); }
  } AutoClose{F};

  Reader In(F, FileBytes);
  uint64_t M0 = 0;
  if (!In.readU64(M0))
    return corrupt(Err, "serialize.magic",
                   "file shorter than the magic ('" + Path + "')");
  if (M0 != MagicV2) {
    if (M0 >> 32 == MagicV2 >> 32)
      return corrupt(Err, "serialize.magic",
                     "unsupported .dptm format version");
    return corrupt(Err, "serialize.magic", "not a .dptm model file");
  }
  // The CRC covers everything after the magic, so the body gets a fresh
  // reader whose byte accounting also starts after the magic.
  Reader Body(F, FileBytes - 8);

  uint64_t Fields[7];
  for (uint64_t &V : Fields)
    if (!Body.readU64(V))
      return corrupt(Err, "serialize.header",
                     "truncated inside the config header");
  TransformerConfig C;
  C.VocabSize = Fields[0];
  C.MaxLen = Fields[1];
  C.EmbedDim = Fields[2];
  C.NumHeads = Fields[3];
  C.HiddenDim = Fields[4];
  C.NumLayers = Fields[5];
  if (Fields[6] > 1)
    return corrupt(Err, "serialize.header",
                   "layer-norm flag is neither 0 nor 1");
  C.LayerNormStdDiv = Fields[6] != 0;
  if (!Body.read(&C.LnEps, sizeof(double)))
    return corrupt(Err, "serialize.header", "truncated before lnEps");
  std::string Why;
  if (!validateConfig(C, &Why))
    return corrupt(Err, "serialize.header", Why);

  DEEPT_FAULT_POINT("serialize.alloc");
  TransformerModel Fresh;
  Fresh.Config = C;
  Fresh.Layers.resize(C.NumLayers);
  for (const NamedMatrix &NM : allMatrices(Fresh)) {
    uint64_t Rows = 0, Cols = 0;
    if (!Body.readU64(Rows) || !Body.readU64(Cols))
      return corrupt(Err, "serialize.matrix",
                     "truncated inside a matrix header");
    if (Rows != NM.Rows || Cols != NM.Cols)
      return corrupt(Err, "serialize.matrix",
                     "matrix is " + std::to_string(Rows) + "x" +
                         std::to_string(Cols) + " but the config implies " +
                         std::to_string(NM.Rows) + "x" +
                         std::to_string(NM.Cols));
    uint64_t Elems = Rows * Cols;
    if (Elems > MaxMatrixElems)
      return corrupt(Err, "serialize.matrix", "matrix implausibly large");
    // Truncation check *before* the allocation: the declared payload must
    // fit in the bytes the file actually has.
    if (Body.remaining() < Elems * sizeof(double))
      return corrupt(Err, "serialize.matrix",
                     "file too short for the declared payload");
    *NM.M = Matrix(Rows, Cols);
    if (!Body.read(NM.M->data(), Elems * sizeof(double)))
      return corrupt(Err, "serialize.matrix", "short read in a payload");
    DEEPT_FAULT_CORRUPT("serialize.payload", NM.M->data(), NM.M->size());
    for (size_t I = 0; I < NM.M->size(); ++I)
      if (!std::isfinite(NM.M->flat(I)))
        return corrupt(Err, "serialize.payload",
                       "non-finite weight in the payload");
  }

  uint32_t Expected = Body.crc();
  uint64_t Trailer = 0;
  if (std::fread(&Trailer, 8, 1, F) != 1)
    return corrupt(Err, "serialize.trailer", "truncated before the CRC");
  if (static_cast<uint32_t>(Trailer) != Expected)
    return corrupt(Err, "serialize.trailer", "CRC32 mismatch");
  // Trailing garbage after the trailer means the file is not what the
  // writer produced.
  if (Body.remaining() != 0)
    return corrupt(Err, "serialize.trailer",
                   "trailing bytes after the model payload");

  Model = std::move(Fresh);
  return true;
}

std::string deept::nn::defaultModelCacheDir() {
  if (const char *Env = std::getenv("DEEPT_MODEL_CACHE"))
    return Env;
  return "deept-model-cache";
}

TransformerModel deept::nn::getOrTrainCached(
    const std::string &CacheDir, const std::string &Name,
    const std::function<TransformerModel()> &TrainFn) {
  ::mkdir(CacheDir.c_str(), 0755);
  std::string Path = CacheDir + "/" + Name + ".dptm";
  TransformerModel Model;
  Error Err;
  if (loadModel(Path, Model, &Err))
    return Model;
  // Only a cold cache trains. A file that is there but does not load is
  // reported, never retrained over: the cache holds tracked models.
  if (Err.code() != ErrorCode::ModelNotFound)
    throw Err;
  Model = TrainFn();
  if (!saveModel(Path, Model, &Err))
    std::fprintf(stderr, "warning: cannot write model cache '%s' (%s)\n",
                 Path.c_str(), Err.what());
  return Model;
}
