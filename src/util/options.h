#ifndef KRCORE_UTIL_OPTIONS_H_
#define KRCORE_UTIL_OPTIONS_H_

#include <map>
#include <string>
#include <vector>

namespace krcore {

/// Minimal command-line option parser used by examples and bench drivers.
/// Accepts `--name=value`, `--name value`, and bare `--flag` (=> "true").
/// Positional arguments are collected in order. GetInt/GetDouble accept
/// only a value that parses in full; anything else (empty, trailing
/// garbage, out of int64 range) prints "invalid value for --NAME: 'VALUE'"
/// to stderr and exits with status 2.
class OptionParser {
 public:
  OptionParser(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace krcore

#endif  // KRCORE_UTIL_OPTIONS_H_
