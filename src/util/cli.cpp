#include "util/cli.hpp"

#include <charconv>
#include "util/fmt.hpp"
#include <stdexcept>

namespace dreamsim {
namespace {

bool ParseInt(const std::string& text, std::int64_t& out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool ParseDouble(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(text, &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseBool(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::AddString(std::string name, std::string default_value,
                          std::string help) {
  options_[std::move(name)] =
      Option{Type::kString, default_value, default_value, std::move(help)};
}

void CliParser::AddInt(std::string name, std::int64_t default_value,
                       std::string help, std::int64_t min, std::int64_t max) {
  if (default_value < min || default_value > max) {
    throw std::logic_error(
        Format("option --{} defaults outside its range", name));
  }
  auto text = Format("{}", default_value);
  options_[std::move(name)] =
      Option{Type::kInt, text, text, std::move(help), false, min, max};
}

void CliParser::AddDouble(std::string name, double default_value,
                          std::string help) {
  auto text = Format("{}", default_value);
  options_[std::move(name)] =
      Option{Type::kDouble, text, text, std::move(help)};
}

void CliParser::AddBool(std::string name, bool default_value,
                        std::string help) {
  const std::string text = default_value ? "true" : "false";
  options_[std::move(name)] = Option{Type::kBool, text, text, std::move(help)};
}

bool CliParser::Assign(const std::string& name, const std::string& value) {
  auto it = options_.find(name);
  if (it == options_.end()) {
    error_ = Format("unknown option --{}", name);
    return false;
  }
  Option& opt = it->second;
  // Validate eagerly so errors surface at parse time, not first access.
  switch (opt.type) {
    case Type::kInt: {
      std::int64_t v;
      if (!ParseInt(value, v)) {
        error_ = Format("option --{} expects an integer, got '{}'", name,
                             value);
        return false;
      }
      if (v < opt.min || v > opt.max) {
        error_ = Format("option --{} expects an integer in [{}, {}], got '{}'",
                        name, opt.min, opt.max, value);
        return false;
      }
      break;
    }
    case Type::kDouble: {
      double v;
      if (!ParseDouble(value, v)) {
        error_ = Format("option --{} expects a number, got '{}'", name,
                             value);
        return false;
      }
      break;
    }
    case Type::kBool: {
      bool v;
      if (!ParseBool(value, v)) {
        error_ = Format("option --{} expects a boolean, got '{}'", name,
                             value);
        return false;
      }
      break;
    }
    case Type::kString:
      break;
  }
  opt.value = value;
  opt.set = true;
  return true;
}

bool CliParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      if (!Assign(std::string(body.substr(0, eq)),
                  std::string(body.substr(eq + 1)))) {
        return false;
      }
      continue;
    }
    const std::string name(body);
    const auto it = options_.find(name);
    if (it == options_.end()) {
      error_ = Format("unknown option --{}", name);
      return false;
    }
    if (it->second.type == Type::kBool) {
      // A bare boolean flag means "true".
      it->second.value = "true";
      it->second.set = true;
      continue;
    }
    if (i + 1 >= argc) {
      error_ = Format("option --{} expects a value", name);
      return false;
    }
    if (!Assign(name, argv[++i])) return false;
  }
  return true;
}

const CliParser::Option& CliParser::Require(std::string_view name,
                                            Type type) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.type != type) {
    throw std::logic_error(
        Format("option --{} not registered with this type", name));
  }
  return it->second;
}

std::string CliParser::GetString(std::string_view name) const {
  return Require(name, Type::kString).value;
}

bool CliParser::WasSet(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::logic_error(Format("option --{} not registered", name));
  }
  return it->second.set;
}

std::int64_t CliParser::GetInt(std::string_view name) const {
  std::int64_t v = 0;
  ParseInt(Require(name, Type::kInt).value, v);
  return v;
}

double CliParser::GetDouble(std::string_view name) const {
  double v = 0.0;
  ParseDouble(Require(name, Type::kDouble).value, v);
  return v;
}

bool CliParser::GetBool(std::string_view name) const {
  bool v = false;
  ParseBool(Require(name, Type::kBool).value, v);
  return v;
}

std::string CliParser::HelpText() const {
  std::string out = description_ + "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    out += Format("  --{:<24} {} (default: {})\n", name, opt.help,
                       opt.default_value);
  }
  return out;
}

}  // namespace dreamsim
