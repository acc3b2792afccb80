// Minimal declarative command-line parser for the example and benchmark
// binaries: --name=value / --name value / boolean --flag, with typed
// accessors, defaults, and generated --help text.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dreamsim {

/// Declarative flag set. Register options, then Parse(argc, argv).
class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers an option with a default value (shown in --help).
  void AddString(std::string name, std::string default_value,
                 std::string help);
  /// An integer option; Parse rejects values outside the inclusive
  /// [min, max], so callers may narrow GetInt to any type that holds it.
  void AddInt(std::string name, std::int64_t default_value, std::string help,
              std::int64_t min = std::numeric_limits<std::int64_t>::min(),
              std::int64_t max = std::numeric_limits<std::int64_t>::max());
  void AddDouble(std::string name, double default_value, std::string help);
  void AddBool(std::string name, bool default_value, std::string help);

  /// Parses argv. Returns false (and fills error()) on unknown or malformed
  /// options. `--help` sets help_requested() and returns true.
  [[nodiscard]] bool Parse(int argc, const char* const* argv);

  [[nodiscard]] std::string GetString(std::string_view name) const;
  [[nodiscard]] std::int64_t GetInt(std::string_view name) const;
  [[nodiscard]] double GetDouble(std::string_view name) const;
  [[nodiscard]] bool GetBool(std::string_view name) const;

  /// True when the user passed the option explicitly (any type); false for
  /// defaults. Throws std::logic_error on unregistered names.
  [[nodiscard]] bool WasSet(std::string_view name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Renders usage text for --help.
  [[nodiscard]] std::string HelpText() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Option {
    Type type;
    std::string default_value;
    std::string value;
    std::string help;
    bool set = false;
    std::int64_t min = 0;  // kInt only: the inclusive accepted range
    std::int64_t max = 0;
  };

  [[nodiscard]] const Option& Require(std::string_view name, Type type) const;
  [[nodiscard]] bool Assign(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Option, std::less<>> options_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace dreamsim
