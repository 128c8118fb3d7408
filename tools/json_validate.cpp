//===- tools/json_validate.cpp - JSON well-formedness checker --*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
// Validates that each argument file parses as standard JSON (RFC 8259),
// using the same support/Json parser the tests use. The smoke tests run
// it over deept_cli's --trace-out / --stats-json artifacts, the bench
// BENCH_*.json reports, the scheduler's JSONL result stores, the
// --profile-out precision-profile JSONL and proof certificates.
//
//   deept_json_validate FILE [FILE...]
//   deept_json_validate --require-key traceEvents FILE
//   deept_json_validate --jsonl --require-key key results.jsonl
//   deept_json_validate --jsonl --schema profile profiles.jsonl
//   cat profiles.jsonl | deept_json_validate --jsonl --schema profile -
//
// --require-key KEY additionally demands a top-level object member named
// KEY in every following file. --jsonl switches to line-delimited mode
// for the following files: every non-empty line must parse as one JSON
// document (and satisfy --require-key individually). --schema NAME
// checks the document shape of the named artifact: "profile" (query,
// margin_width, checkpoints[], attribution[]) or "certificate" (the proof
// certificate envelope of verify/Certificate.h; structure only -- the
// CRC and the interval replay belong to deept_check). "-" reads a file
// from stdin.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace deept;

namespace {

/// Shape check for one parsed artifact document; fills \p Why on failure.
bool checkSchema(const support::JsonValue &Doc, const std::string &Schema,
                 std::string &Why) {
  auto Need = [&](const char *Key, const support::JsonValue **Out =
                                       nullptr) {
    const support::JsonValue *V = Doc.find(Key);
    if (!V) {
      Why = std::string("missing key \"") + Key + "\"";
      return false;
    }
    if (Out)
      *Out = V;
    return true;
  };
  if (Schema == "profile") {
    const support::JsonValue *Checkpoints = nullptr, *Attr = nullptr;
    if (!Need("query") || !Need("margin_width") ||
        !Need("checkpoints", &Checkpoints) ||
        !Need("attribution", &Attr))
      return false;
    if (!Checkpoints->isArray()) {
      Why = "\"checkpoints\" must be an array";
      return false;
    }
    if (!Attr->isArray()) {
      Why = "\"attribution\" must be an array";
      return false;
    }
    for (const support::JsonValue &C : Checkpoints->Items)
      if (!C.find("site") || !C.find("mean_width")) {
        Why = "checkpoint entries need \"site\" and \"mean_width\"";
        return false;
      }
    for (const support::JsonValue &G : Attr->Items)
      if (!G.find("group") || !G.find("width")) {
        Why = "attribution entries need \"group\" and \"width\"";
        return false;
      }
    return true;
  }
  if (Schema == "certificate") {
    // Structural check of the envelope only; the CRC and the actual
    // interval replay are deept_check's job.
    const support::JsonValue *Payload = nullptr;
    if (!Need("deept_cert") || !Need("isa") || !Need("threads") ||
        !Need("crc32") || !Need("payload", &Payload))
      return false;
    if (!Payload->isObject()) {
      Why = "\"payload\" must be an object";
      return false;
    }
    const support::JsonValue *Cps = Payload->find("checkpoints");
    const support::JsonValue *Margin = Payload->find("margin");
    if (!Payload->find("query") || !Payload->find("kind") || !Cps ||
        !Margin) {
      Why = "payload needs \"query\", \"kind\", \"checkpoints\" and "
            "\"margin\"";
      return false;
    }
    if (!Cps->isArray()) {
      Why = "\"checkpoints\" must be an array";
      return false;
    }
    for (const support::JsonValue &C : Cps->Items)
      if (!C.find("site") || !C.find("lo") || !C.find("hi")) {
        Why = "checkpoint entries need \"site\", \"lo\" and \"hi\"";
        return false;
      }
    if (!Margin->find("alpha") || !Margin->find("beta") ||
        !Margin->find("lo") || !Margin->find("certified")) {
      Why = "margin needs \"alpha\", \"beta\", \"lo\" and \"certified\"";
      return false;
    }
    return true;
  }
  Why = "unknown schema \"" + Schema +
        "\" (want profile or certificate)";
  return false;
}

bool checkDoc(const char *Path, const std::string &Text,
              const std::string &RequiredKey, const std::string &Schema,
              size_t LineNo) {
  auto Complain = [&](const std::string &Msg) {
    if (LineNo)
      std::fprintf(stderr, "%s:%zu: %s\n", Path, LineNo, Msg.c_str());
    else
      std::fprintf(stderr, "%s: %s\n", Path, Msg.c_str());
    return false;
  };
  support::JsonValue Doc;
  std::string Err;
  if (!support::parseJson(Text, Doc, &Err))
    return Complain("invalid JSON: " + Err);
  if (!RequiredKey.empty() && !Doc.find(RequiredKey))
    return Complain("missing key \"" + RequiredKey + "\"");
  if (!Schema.empty()) {
    std::string Why;
    if (!checkSchema(Doc, Schema, Why))
      return Complain("schema " + Schema + ": " + Why);
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string RequiredKey;
  std::string Schema;
  bool Jsonl = false;
  int Checked = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--require-key") == 0) {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --require-key needs an argument\n");
        return 2;
      }
      RequiredKey = Argv[I];
      continue;
    }
    if (std::strcmp(Argv[I], "--schema") == 0) {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --schema needs an argument\n");
        return 2;
      }
      Schema = Argv[I];
      continue;
    }
    if (std::strcmp(Argv[I], "--jsonl") == 0) {
      Jsonl = true;
      continue;
    }
    bool Stdin = std::strcmp(Argv[I], "-") == 0;
    const char *Name = Stdin ? "<stdin>" : Argv[I];
    std::ifstream File;
    if (!Stdin) {
      File.open(Argv[I], std::ios::binary);
      if (!File) {
        std::fprintf(stderr, "%s: cannot open\n", Argv[I]);
        return 1;
      }
    }
    std::istream &In = Stdin ? std::cin : File;
    if (Jsonl) {
      std::string Line;
      size_t LineNo = 0, Docs = 0;
      while (std::getline(In, Line)) {
        ++LineNo;
        if (Line.empty())
          continue;
        if (!checkDoc(Name, Line, RequiredKey, Schema, LineNo))
          return 1;
        ++Docs;
      }
      if (Docs == 0) {
        std::fprintf(stderr, "%s: no JSON documents (empty JSONL)\n", Name);
        return 1;
      }
      std::printf("%s: valid JSONL (%zu documents)\n", Name, Docs);
    } else {
      std::ostringstream Buf;
      Buf << In.rdbuf();
      std::string Text = Buf.str();
      if (!checkDoc(Name, Text, RequiredKey, Schema, 0))
        return 1;
      std::printf("%s: valid JSON (%zu bytes)\n", Name, Text.size());
    }
    ++Checked;
  }
  if (Checked == 0) {
    std::fprintf(stderr,
                 "usage: deept_json_validate [--jsonl] [--require-key KEY] "
                 "[--schema profile|certificate] FILE|-...\n");
    return 2;
  }
  return 0;
}
