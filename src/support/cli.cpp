#include "support/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace dps {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";
      }
    } else {
      positionals_.push_back(std::move(arg));
    }
  }
}

std::optional<std::string> Cli::lookup(const std::string& key) {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  consumed_[key] = true;
  return it->second;
}

void Cli::describe(const std::string& key, const std::string& def, const std::string& help) {
  std::ostringstream os;
  os << "  --" << key;
  if (!def.empty()) os << " (default: " << def << ")";
  if (!help.empty()) os << "  " << help;
  descriptions_.push_back(os.str());
}

std::string Cli::str(const std::string& key, const std::string& def, const std::string& help) {
  describe(key, def, help);
  return lookup(key).value_or(def);
}

namespace {

/// Parses all of `text` with a std::stoll/std::stod-style `parse`; an
/// unparseable value or any unconsumed character ("8x", "1.5" as an
/// integer) is a ConfigError.
template <class Parse>
auto parseWhole(const std::string& key, const std::string& text, const char* expects,
                Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw ConfigError("option --" + key + " expects " + expects + ", got '" + text + "'");
}

} // namespace

std::int64_t Cli::integer(const std::string& key, std::int64_t def, const std::string& help) {
  describe(key, std::to_string(def), help);
  auto v = lookup(key);
  if (!v) return def;
  return parseWhole(key, *v, "an integer",
                    [](const std::string& s, std::size_t* used) { return std::stoll(s, used); });
}

double Cli::real(const std::string& key, double def, const std::string& help) {
  describe(key, std::to_string(def), help);
  auto v = lookup(key);
  if (!v) return def;
  return parseWhole(key, *v, "a number",
                    [](const std::string& s, std::size_t* used) { return std::stod(s, used); });
}

bool Cli::flag(const std::string& key, const std::string& help) {
  describe(key, "false", help);
  auto v = lookup(key);
  return v && *v != "false" && *v != "0";
}

std::string Cli::helpText() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n";
  for (const auto& d : descriptions_) os << d << '\n';
  return os.str();
}

void Cli::finish() const {
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!consumed_.count(key)) throw ConfigError("unknown option --" + key);
  }
}

} // namespace dps
