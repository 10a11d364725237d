#include "util/options.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace krcore {
namespace {

/// Exits with status 2 naming the flag, like a usage error.
[[noreturn]] void RejectValue(const std::string& name,
                              const std::string& value) {
  std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
               value.c_str());
  std::exit(2);
}

}  // namespace

OptionParser::OptionParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string body(arg + 2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool OptionParser::Has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

std::string OptionParser::GetString(const std::string& name,
                                    const std::string& def) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t OptionParser::GetInt(const std::string& name, int64_t def) const {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    RejectValue(name, it->second);
  }
  return value;
}

uint32_t OptionParser::GetUint32(const std::string& name,
                                 uint32_t def) const {
  const int64_t value = GetInt(name, def);
  if (value < 0 || value > std::numeric_limits<uint32_t>::max()) {
    RejectValue(name, values_.at(name));
  }
  return static_cast<uint32_t>(value);
}

double OptionParser::GetDouble(const std::string& name, double def) const {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') RejectValue(name, it->second);
  return value;
}

bool OptionParser::GetBool(const std::string& name, bool def) const {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void OptionParser::RejectUnknown() const {
  bool unknown = false;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      unknown = true;
    }
  }
  if (unknown) std::exit(2);
}

}  // namespace krcore
