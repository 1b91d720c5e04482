#include "support/cli.hpp"

#include <cerrno>
#include <cmath>
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
        options_[arg.substr(2)] = std::nullopt;
      } else {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

const std::string* Cli::value_of(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  if (!it->second) throw std::invalid_argument("--" + key + " needs a value");
  return &*it->second;
}

bool Cli::has(const std::string& key) const { return options_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const std::string* found = value_of(key);
  return found == nullptr ? fallback : *found;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const std::string* found = value_of(key);
  if (found == nullptr) return fallback;
  const std::string& value = *found;
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
  const std::string* found = value_of(key);
  if (found == nullptr) return fallback;
  const std::string& value = *found;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    bad_number(key, value, "number");
  }
  // strtod reads "inf" and "nan" whole; no flag means either.
  if (!std::isfinite(parsed)) bad_number(key, value, "finite number");
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
