#include "support/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace ttg::support {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::option(const std::string& name, const std::string& default_value,
                 const std::string& help) {
  TTG_REQUIRE(!opts_.count(name), "duplicate option: " + name);
  opts_[name] = Opt{default_value, help, /*is_flag=*/false};
  order_.push_back(name);
}

void Cli::flag(const std::string& name, const std::string& help) {
  TTG_REQUIRE(!opts_.count(name), "duplicate flag: " + name);
  opts_[name] = Opt{"0", help, /*is_flag=*/true};
  order_.push_back(name);
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return false;
    }
    TTG_REQUIRE(arg.rfind("--", 0) == 0, "unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = opts_.find(arg);
    TTG_REQUIRE(it != opts_.end(), "unknown option: --" + arg);
    if (it->second.is_flag) {
      TTG_REQUIRE(!has_value, "flag --" + arg + " does not take a value");
      it->second.value = '1';  // a char: "1" trips a false GCC 12 -Wrestrict
    } else {
      if (!has_value) {
        TTG_REQUIRE(i + 1 < argc, "missing value for --" + arg);
        value = argv[++i];
      }
      it->second.value = value;
    }
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = opts_.find(name);
  TTG_REQUIRE(it != opts_.end(), "undeclared option: " + name);
  return it->second.value;
}

namespace {

/// Parse all of `value` with `conv` (strtoll/strtod shape); an empty,
/// partly parsed or out-of-range value is an ApiError naming the option.
template <class Conv>
auto parse_number(const std::string& name, const std::string& value, const char* what,
                  Conv conv) {
  char* end = nullptr;
  errno = 0;
  const auto x = conv(value.c_str(), &end);
  TTG_REQUIRE(!value.empty() && end == value.c_str() + value.size() && errno != ERANGE,
              "option --" + name + " needs " + what + ", got '" + value + "'");
  return x;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name) const {
  return parse_number(name, get(name), "an integer",
                      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double Cli::get_double(const std::string& name) const {
  return parse_number(name, get(name), "a number",
                      [](const char* s, char** end) { return std::strtod(s, end); });
}

bool Cli::get_flag(const std::string& name) const { return get(name) == "1"; }

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const auto& o = opts_.at(name);
    os << "  --" << name;
    if (!o.is_flag) os << " <value> (default: " << o.value << ")";
    os << "\n      " << o.help << "\n";
  }
  return os.str();
}

}  // namespace ttg::support
