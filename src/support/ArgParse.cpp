//===- support/ArgParse.cpp -----------------------------------*- C++ -*-===//

#include "support/ArgParse.h"

#include "support/Error.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace deept::support;

ArgParse::ArgParse(int Argc, const char *const *Argv,
                   const std::vector<std::string> &Switches) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(std::move(Arg));
      continue;
    }
    std::string Name = Arg.substr(2), Value;
    size_t Eq = Name.find('=');
    bool EqForm = Eq != std::string::npos; // --key=value
    if (EqForm) {
      Value = Name.substr(Eq + 1);
      Name.resize(Eq);
    }
    bool IsSwitch =
        std::find(Switches.begin(), Switches.end(), Name) != Switches.end();
    if (!EqForm && !IsSwitch && I + 1 < Argc &&
        std::string(Argv[I + 1]).rfind("--", 0) != 0)
      Value = Argv[++I];
    if (!IsSwitch && Value.empty())
      Missing.push_back(Name);
    Values[Name] = std::move(Value);
  }
}

bool ArgParse::has(const std::string &Name) const {
  return Values.count(Name) > 0;
}

std::string ArgParse::get(const std::string &Name,
                          const std::string &Default) const {
  auto It = Values.find(Name);
  return It == Values.end() ? Default : It->second;
}

namespace {

/// The one numeric path: \p Parse must consume all of a non-empty value
/// that does not start with whitespace, without overflowing.
template <typename T, typename ParseFn>
T parseValue(const std::string &Name, const std::string &Text,
             const char *What, ParseFn Parse) {
  char *End = nullptr;
  errno = 0;
  T V = Parse(Text.c_str(), &End);
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])) ||
      End != Text.c_str() + Text.size() || errno == ERANGE)
    throw Error(ErrorCode::BadArgument, "cli.flags",
                "--" + Name + " expects " + What + ", got '" + Text + "'");
  return V;
}

} // namespace

long ArgParse::getInt(const std::string &Name, long Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  return parseValue<long>(Name, It->second, "an integer",
                          [](const char *S, char **End) {
                            return std::strtol(S, End, 10);
                          });
}

double ArgParse::getDouble(const std::string &Name, double Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  double V = parseValue<double>(Name, It->second, "a number",
                                [](const char *S, char **End) {
                                  return std::strtod(S, End);
                                });
  if (!std::isfinite(V))
    throw Error(ErrorCode::BadArgument, "cli.flags",
                "--" + Name + " expects a finite number, got '" +
                    It->second + "'");
  return V;
}

std::vector<std::string>
ArgParse::unknownFlags(const std::vector<std::string> &Known) const {
  std::vector<std::string> Out;
  for (const auto &[Name, Value] : Values)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end())
      Out.push_back(Name);
  return Out;
}
