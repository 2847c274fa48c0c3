// Minimal command-line option parsing for examples and bench binaries.
//
// Supports `--name value` and `--name=value` plus boolean flags; anything
// the caller did not declare is rejected so typos never silently fall back
// to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ttg::support {

/// Declarative option parser: declare defaults, then parse argv.
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Declare an option with a default value (stringly typed storage).
  void option(const std::string& name, const std::string& default_value,
              const std::string& help);
  /// Declare a boolean flag (defaults to false).
  void flag(const std::string& name, const std::string& help);

  /// Parse argv; returns false (after printing usage) on --help.
  /// Throws ApiError on unknown options or missing values.
  bool parse(int argc, char** argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric getters throw ApiError, naming the option, on a value that is
  /// empty, not entirely a number, or out of range.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Opt {
    std::string value;
    std::string help;
    bool is_flag = false;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Opt> opts_;
  std::vector<std::string> order_;
};

}  // namespace ttg::support
