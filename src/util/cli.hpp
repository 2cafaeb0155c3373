#pragma once

// Tiny command-line parser for the examples and bench binaries.
// Supports --flag, --key=value, and --key value forms.

#include <map>
#include <string>
#include <vector>

namespace gvc::util {

class Args {
 public:
  /// Parses argv. Unknown arguments are collected as positionals.
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Value lookups with defaults. Aborts (GVC_CHECK) on malformed numbers so
  /// typos fail loudly instead of silently benchmarking the wrong config.
  std::string get(const std::string& key, const std::string& def = "") const;
  long long get_int(const std::string& key, long long def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Every --name given, in name order (a repeated flag appears once).
  std::vector<std::string> flags() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace gvc::util
