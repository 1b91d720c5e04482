#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dlb::support {

/// Tiny `--key=value` / `--flag` argument parser shared by the examples and
/// benchmark binaries.  Unrecognized positional arguments are kept in order.
///
/// Numeric accessors parse strictly: the whole value must be a valid number
/// (`--procs=4x` or `--tl=fast` throw std::invalid_argument instead of
/// silently reading 0, which used to turn a typo into a zero-processor
/// grid).  A bare `--flag` has no value: `has` sees it, and the value
/// accessors throw "--flag needs a value" rather than read a made-up one.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Throws std::invalid_argument if any parsed `--option` is not in
  /// `known` — so `--thraeds=4` fails loudly instead of being ignored.
  /// Call after all flags are known; binaries with open-ended flag sets
  /// simply never call it.
  void reject_unknown(const std::vector<std::string>& known) const;

 private:
  /// The value given for `key`, or nullptr when the flag is absent; throws
  /// if the flag was passed bare.
  [[nodiscard]] const std::string* value_of(const std::string& key) const;

  std::map<std::string, std::optional<std::string>> options_;
  std::vector<std::string> positional_;
};

}  // namespace dlb::support
