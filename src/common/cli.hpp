// Tiny --flag=value / --flag value parser shared by benches and examples,
// so every experiment binary accepts the same knobs (--iters, --workers,
// --seed, --full, ...) without pulling in an external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdgan {

class CliFlags {
 public:
  // Parses argv. Accepts "--name=value", "--name value" and bare
  // "--name" (boolean true); a flag no caller asks for is ignored.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  // The typed getters return `def` when the flag is absent. A value they
  // cannot parse whole, or one out of range, throws
  // std::invalid_argument naming the flag and the value. Booleans are
  // true/false, 1/0, yes/no, or a bare flag (true).
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mdgan
