// The command-line front door of every tool, example and bench.
//
// `Cli` accepts `--key=value`, `--key value` and boolean `--flag` forms;
// anything else is a positional argument.  Unknown options are an error so
// typos in experiment sweeps fail loudly.  `runMain` runs a binary's body
// under one exit-code contract:
//   0  success, or --help (the usage text, printed before any work);
//   2  a usage error: an unknown or malformed flag, a failed flag check, an
//      unopenable output path, or any ConfigError raised later (a bad input
//      file, an inconsistent application config); one error line plus the
//      usage text go to stderr;
//   1  any other error, or an output file whose final flush failed.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dps {

/// An output file named by a --flag (--json, --trace, ...).  Cli::finish()
/// opens it, so an unwritable path fails before the run; runMain() closes
/// it once the body returns.
class Artifact {
public:
  /// True when the command line named a path.
  explicit operator bool() const { return !path_.empty(); }
  /// The opened file (valid once Cli::finish() returned).
  std::ostream& stream();

private:
  friend class Cli;
  std::string path_;
  std::ofstream os_;
};

class Cli {
public:
  /// Thrown by finish() on --help; runMain() prints the usage and exits 0.
  struct HelpRequested {};

  Cli(int argc, const char* const* argv);

  /// Declares an option so `--help` can describe it and parsing accepts it.
  /// Returns the value (or `def` when absent).  A malformed value returns
  /// `def` and makes finish() throw, so the usage text is complete.
  std::string str(const std::string& key, const std::string& def, const std::string& help = {});
  std::int64_t integer(const std::string& key, std::int64_t def, const std::string& help = {});
  double real(const std::string& key, double def, const std::string& help = {});
  bool flag(const std::string& key, const std::string& help = {});
  /// A concurrency option in [0, 4096]: returns how many simulations run
  /// at once, 0 (the default) resolved to the hardware concurrency.
  unsigned jobs(const std::string& key, const std::string& help);
  /// An output file option; the reference lives as long as the Cli.
  Artifact& artifact(const std::string& key, const std::string& help);

  const std::vector<std::string>& positionals() const { return positionals_; }
  bool helpRequested() const { return help_; }
  std::string helpText() const;

  /// Ends the declarations; call it once the caller's own flag checks ran.
  /// Throws HelpRequested on --help, then ConfigError for the first bad
  /// value or undeclared option, then opens every named artifact (an
  /// unopenable path is a ConfigError too).
  void finish();

  /// Closes the opened artifacts, printing "wrote PATH" for each; false
  /// (naming the file on stderr) if a final flush failed.
  bool closeArtifacts();

private:
  std::optional<std::string> lookup(const std::string& key);
  void describe(const std::string& key, const std::string& def, const std::string& help);
  void fail(std::string message);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::set<std::string> bare_; // --keys given without a value
  std::vector<std::string> positionals_;
  std::vector<std::string> descriptions_;
  std::string error_;              // the first malformed or out-of-range value
  std::deque<Artifact> artifacts_; // a deque keeps handed-out references valid
  bool help_ = false;
};

/// Parses all of `text` as an integer (a number); nullopt when it is not
/// one or has trailing characters ("8x", or "1.5" as an integer).
std::optional<std::int64_t> parseInteger(const std::string& text);
std::optional<double> parseNumber(const std::string& text);

/// Runs `body` under the exit-code contract above:
///   int main(int argc, char** argv) { return dps::runMain(argc, argv, run); }
int runMain(int argc, const char* const* argv, int (*body)(Cli&));

} // namespace dps
