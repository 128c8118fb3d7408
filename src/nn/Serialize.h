//===- nn/Serialize.h - Model (de)serialization ----------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary save/load for TransformerModel plus a tiny disk cache used by
/// the benchmark binaries so a model trained for one table is reused by
/// the others (the paper similarly trains each network once).
///
/// The on-disk format (".dptm", version 2) is hardened against the
/// corruption modes a production model store actually sees:
///
///   magic "DPTM0002" | config header | matrix payload | CRC32 trailer
///
/// The loader verifies the magic and version, bounds-checks every
/// dimension field *before* allocating (a flipped bit in a header must
/// not become a 100-GB allocation), cross-checks each matrix shape
/// against the shape the config implies, detects truncation against the
/// file size, rejects non-finite weights, and verifies a CRC32 over
/// header + payload. Failures are typed support::Error values
/// (model_not_found / model_corrupt / io_error), never crashes or
/// silently wrong models. Saves are atomic (write temp + rename). Any
/// other magic, including the retired trailer-less version 1, is
/// model_corrupt.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_NN_SERIALIZE_H
#define DEEPT_NN_SERIALIZE_H

#include "nn/Transformer.h"
#include "support/Error.h"

#include <functional>
#include <string>

namespace deept {
namespace nn {

/// Writes \p Model to \p Path atomically. Returns false on I/O failure,
/// filling \p Err (optional) with the typed cause.
bool saveModel(const std::string &Path, const TransformerModel &Model,
               support::Error *Err = nullptr);

/// Reads a model from \p Path. Returns false on failure, filling \p Err
/// (optional) with a typed cause: ModelNotFound when the file does not
/// exist, ModelCorrupt for any format/validation failure, IoError for OS
/// level read errors.
bool loadModel(const std::string &Path, TransformerModel &Model,
               support::Error *Err = nullptr);

/// Validates \p Config in isolation: every dimension within its sane
/// bound, heads dividing the embedding width. Used by the loader before
/// any allocation; exposed for tests.
bool validateConfig(const TransformerConfig &Config, std::string *Why);

/// Loads "CacheDir/Name.dptm"; only when no such file exists does it
/// invoke \p TrainFn and store the result. A file that exists but does
/// not load throws its typed support::Error and is left as it is -- never
/// trusted, never retrained over. CacheDir is created if missing.
TransformerModel
getOrTrainCached(const std::string &CacheDir, const std::string &Name,
                 const std::function<TransformerModel()> &TrainFn);

/// The cache directory the benchmark binaries share (next to the build).
std::string defaultModelCacheDir();

} // namespace nn
} // namespace deept

#endif // DEEPT_NN_SERIALIZE_H
