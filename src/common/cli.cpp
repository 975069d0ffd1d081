#include "common/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace mdgan {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliFlags::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace mdgan
