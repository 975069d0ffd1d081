#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace mdgan {
namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

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
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    bad_value(name, v, "an integer");
  }
  return n;
}

double CliFlags::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    bad_value(name, v, "a number");
  }
  return x;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "true/false, 1/0 or yes/no");
}

}  // namespace mdgan
