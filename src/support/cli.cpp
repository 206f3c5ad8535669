#include "support/cli.hpp"

#include <cstdio>
#include <exception>
#include <sstream>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace dps {

std::ostream& Artifact::stream() {
  DPS_CHECK(os_.is_open(), "artifact " + path_ + " written before Cli::finish() opened it");
  return os_;
}

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
        bare_.insert(body);
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

void Cli::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

std::string Cli::str(const std::string& key, const std::string& def, const std::string& help) {
  describe(key, def, help);
  const auto v = lookup(key);
  if (v && bare_.count(key)) fail("option --" + key + " expects a value");
  return v.value_or(def);
}

namespace {

template <class Parse>
auto parseWhole(const std::string& text, Parse parse)
    -> std::optional<decltype(parse(text, nullptr))> {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
    // std::invalid_argument or std::out_of_range: not a number.
  }
  return std::nullopt;
}

} // namespace

std::optional<std::int64_t> parseInteger(const std::string& text) {
  return parseWhole(text, [](const std::string& s, std::size_t* used) {
    return static_cast<std::int64_t>(std::stoll(s, used));
  });
}

std::optional<double> parseNumber(const std::string& text) {
  return parseWhole(text,
                    [](const std::string& s, std::size_t* used) { return std::stod(s, used); });
}

std::int64_t Cli::integer(const std::string& key, std::int64_t def, const std::string& help) {
  describe(key, std::to_string(def), help);
  auto v = lookup(key);
  if (!v) return def;
  if (const auto parsed = parseInteger(*v)) return *parsed;
  fail("option --" + key + " expects an integer, got '" + *v + "'");
  return def;
}

double Cli::real(const std::string& key, double def, const std::string& help) {
  describe(key, std::to_string(def), help);
  auto v = lookup(key);
  if (!v) return def;
  if (const auto parsed = parseNumber(*v)) return *parsed;
  fail("option --" + key + " expects a number, got '" + *v + "'");
  return def;
}

bool Cli::flag(const std::string& key, const std::string& help) {
  describe(key, "false", help);
  auto v = lookup(key);
  return v && *v != "false" && *v != "0";
}

unsigned Cli::jobs(const std::string& key, const std::string& help) {
  constexpr std::int64_t kMaxJobs = 4096;
  const std::int64_t n = integer(key, 0, help);
  if (n == 0) return ThreadPool::hardwareJobs();
  if (n > 0 && n <= kMaxJobs) return static_cast<unsigned>(n);
  fail("--" + key + " must be in [0, " + std::to_string(kMaxJobs) + "], got " +
       std::to_string(n));
  return 0;
}

Artifact& Cli::artifact(const std::string& key, const std::string& help) {
  Artifact& a = artifacts_.emplace_back();
  a.path_ = str(key, "", help);
  return a;
}

std::string Cli::helpText() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n";
  for (const auto& d : descriptions_) os << d << '\n';
  return os.str();
}

void Cli::finish() {
  if (help_) throw HelpRequested{};
  if (!error_.empty()) throw ConfigError(error_);
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!consumed_.count(key)) throw ConfigError("unknown option --" + key);
  }
  for (Artifact& a : artifacts_) {
    if (!a) continue;
    a.os_.open(a.path_);
    if (!a.os_) throw ConfigError("cannot open " + a.path_ + " for writing");
  }
}

bool Cli::closeArtifacts() {
  bool ok = true;
  for (Artifact& a : artifacts_) {
    if (!a.os_.is_open()) continue;
    a.os_.close(); // flushes; a failed write or flush leaves the stream failed
    if (a.os_.fail()) {
      std::fprintf(stderr, "cannot write %s\n", a.path_.c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", a.path_.c_str());
    }
  }
  return ok;
}

int runMain(int argc, const char* const* argv, int (*body)(Cli&)) {
  Cli cli(argc, argv);
  try {
    const int rc = body(cli);
    const bool written = cli.closeArtifacts();
    return rc != 0 ? rc : (written ? 0 : 1);
  } catch (const Cli::HelpRequested&) {
  } catch (const ConfigError& e) {
    // --help wins over a flag check the body made before finish().
    if (!cli.helpRequested()) {
      std::fprintf(stderr, "%s\n%s", e.what(), cli.helpText().c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("%s", cli.helpText().c_str());
  return 0;
}

} // namespace dps
