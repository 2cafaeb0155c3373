#include "util/cli.hpp"

#include "util/check.hpp"
#include "util/strings.hpp"

namespace gvc::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      kv_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      kv_[body] = argv[++i];
    } else {
      kv_[body] = "true";  // bare flag
    }
  }
}

bool Args::has(const std::string& key) const { return kv_.count(key) > 0; }

std::vector<std::string> Args::flags() const {
  std::vector<std::string> names;
  names.reserve(kv_.size());
  for (const auto& [name, value] : kv_) names.push_back(name);
  return names;
}

std::string Args::get(const std::string& key, const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

long long Args::get_int(const std::string& key, long long def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  long long v = 0;
  GVC_CHECK_MSG(parse_int(it->second, v), "malformed integer CLI value");
  return v;
}

double Args::get_double(const std::string& key, double def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  double v = 0;
  GVC_CHECK_MSG(parse_double(it->second, v), "malformed float CLI value");
  return v;
}

bool Args::get_bool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::string v = to_lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  GVC_CHECK_MSG(false, "malformed boolean CLI value");
  return def;
}

}  // namespace gvc::util
