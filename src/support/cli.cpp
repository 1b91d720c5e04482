#include "support/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace dlb::support {

namespace {

[[noreturn]] void bad_number(const std::string& key, const std::string& value,
                             const char* kind) {
  throw std::invalid_argument("--" + key + "=" + value + ": not a valid " + kind);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        // A std::string, not the literal: assigning "1" here trips a GCC 12
        // -Wrestrict false positive in the inlined char_traits copy.
        options_[arg.substr(2)] = std::string("1");
      } else {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Cli::has(const std::string& key) const { return options_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& value = it->second;
  // strtol with an unchecked end pointer accepted "4x" as 4 and "x" as 0;
  // require the full string to be consumed and non-empty.
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    bad_number(key, value, "integer");
  }
  return parsed;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    bad_number(key, value, "number");
  }
  return parsed;
}

void Cli::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : options_) {
    bool ok = false;
    for (const auto& k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) throw std::invalid_argument("unknown option --" + key);
  }
}

}  // namespace dlb::support
