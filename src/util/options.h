#ifndef KRCORE_UTIL_OPTIONS_H_
#define KRCORE_UTIL_OPTIONS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace krcore {

/// Minimal command-line option parser used by examples and bench drivers.
/// Accepts `--name=value`, `--name value`, and bare `--flag` (=> "true").
/// Positional arguments are collected in order. GetInt/GetUint32/GetDouble
/// accept only a value that parses in full and fits the returned type;
/// anything else (empty, trailing garbage, out of range) prints "invalid
/// value for --NAME: 'VALUE'" to stderr and exits with status 2. Every
/// Has/Get* call records the name it reads, so RejectUnknown can refuse
/// flags the program never asked for.
class OptionParser {
 public:
  OptionParser(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  uint32_t GetUint32(const std::string& name, uint32_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def = false) const;

  /// Prints "unknown flag --NAME" to stderr for every given flag that no
  /// Has/Get* call has read, and exits with status 2 if there was one. Call
  /// it once the program has read all its flags, before it does any work.
  void RejectUnknown() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // names any Has/Get* call asked for
  std::vector<std::string> positional_;
};

}  // namespace krcore

#endif  // KRCORE_UTIL_OPTIONS_H_
