// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench prints (a) the rows/series the paper reports, (b) a
// paper-vs-measured comparison where the paper gives concrete numbers, and
// (c) [CHECK] lines asserting the *shape* claims (who wins, by roughly what
// factor, where crossovers fall).  Absolute times are not expected to match
// the authors' 2006 testbed; shapes are (DESIGN.md §5).
//
// Benches execute their sweeps as exp::Campaign runs: observations fan out
// over --jobs concurrent simulations (default: all cores) and come back in
// deterministic point order, so the printed tables and [CHECK] verdicts are
// identical at any job count.  --json <path> dumps the campaign result set,
// aggregates and check verdicts for cross-PR trajectory tracking.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/scenario.hpp"
#include "lu/builder.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dps::bench {

/// The paper's experiment platform at paper scale.
inline exp::EngineSettings paperSettings() { return exp::EngineSettings{}; }

/// 2592 x 2592 matrix — the size every evaluation section experiment uses.
inline lu::LuConfig paperLu(std::int32_t r, std::int32_t workers) {
  lu::LuConfig cfg;
  cfg.n = 2592;
  cfg.r = r;
  cfg.workers = workers;
  cfg.seed = 20060425; // IPPS 2006
  cfg.fcLimit = 8;
  return cfg;
}

/// Sweep execution options shared by every bench binary.
struct RunOptions {
  unsigned jobs = 0;    // 0 = hardware concurrency
  std::string jsonPath; // empty = no JSON emission
};

/// Declares --jobs/--json on the bench's Cli (call before helpRequested()).
inline RunOptions runOptions(Cli& cli) {
  RunOptions o;
  const std::int64_t jobs =
      cli.integer("jobs", 0, "concurrent simulations (0 = hardware concurrency)");
  if (jobs < 0 || jobs > 4096)
    throw ConfigError("--jobs must be in [0, 4096], got " + std::to_string(jobs));
  o.jobs = static_cast<unsigned>(jobs);
  o.jsonPath = cli.str("json", "", "write results + check verdicts to this JSON file");
  return o;
}

/// Concurrency the options resolve to (0 = hardware).
inline unsigned effectiveJobs(const RunOptions& o) {
  return o.jobs == 0 ? ThreadPool::hardwareJobs() : o.jobs;
}

/// The fully parsed shared bench command line.  Every bench main starts with
/// BenchArgs::parse instead of hand-rolling Cli handling: --help prints the
/// usage text and exits 0; unknown or malformed options print the error plus
/// usage and exit 2 — never silently ignored, never an uncaught throw.
struct BenchArgs {
  RunOptions opts;
  bool smoke = false;

  static BenchArgs parse(int argc, const char* const* argv, bool withSmoke = false) {
    Cli cli(argc, argv);
    BenchArgs args;
    try {
      if (withSmoke)
        args.smoke =
            cli.flag("smoke", "reduced-size CI run; skips paper-scale shape checks");
      args.opts = runOptions(cli);
      if (cli.helpRequested()) {
        std::printf("%s", cli.helpText().c_str());
        std::exit(0);
      }
      cli.finish();
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n%s", e.what(), cli.helpText().c_str());
      std::exit(2);
    }
    return args;
  }
};

/// Worker count for a shared caller-participates pool: the calling thread
/// plus this many workers give exactly effectiveJobs() concurrent bodies
/// (0 workers = serial inline execution).
inline unsigned poolWorkers(const RunOptions& o) { return effectiveJobs(o) - 1; }

struct CheckRecord {
  std::string claim;
  bool ok = false;
};

// Campaign sweeps run checks and [CHECK] output from pool threads in some
// benches; the counter is atomic and the output + record list mutex-guarded
// so lines never interleave and no verdict is lost.
inline std::atomic<int> g_checksFailed{0};
inline std::mutex g_checkMutex;
inline std::vector<CheckRecord> g_checks;

/// Records a shape-claim check; failures flip the process exit code so the
/// bench sweep doubles as a regression harness.
inline void check(bool ok, const std::string& claim) {
  std::lock_guard<std::mutex> lock(g_checkMutex);
  std::printf("[CHECK] %-70s %s\n", claim.c_str(), ok ? "PASS" : "FAIL");
  g_checks.push_back({claim, ok});
  if (!ok) g_checksFailed.fetch_add(1, std::memory_order_relaxed);
}

/// Writes the bench's JSON artifact: name, job count, check verdicts and
/// (when the bench is campaign-based) the full observation set + aggregates.
/// `extraJson` lets non-Campaign benches (e.g. the sched cluster sweep)
/// append their own top-level members: pass `"key":value[,...]` fragments.
/// Returns false when the file could not be opened or fully written.
inline bool writeJson(const std::string& path, const std::string& benchName,
                      const RunOptions& opts, const exp::CampaignResult* campaign,
                      const std::string& extraJson = {}) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write JSON to %s\n", path.c_str());
    return false;
  }
  JsonWriter w(os);
  w.beginObject().field("bench", benchName).field("jobs", effectiveJobs(opts));
  w.key("checks").beginArray();
  {
    std::lock_guard<std::mutex> lock(g_checkMutex);
    for (const CheckRecord& c : g_checks)
      w.beginObject().field("claim", c.claim).field("pass", c.ok).endObject();
  }
  w.endArray();
  if (campaign) w.key("campaign").raw(campaign->jsonString());
  w.rawMembers(extraJson);
  w.endObject();
  DPS_CHECK(w.closed(), "unbalanced bench JSON");
  os << "\n";
  if (!os.flush()) {
    std::fprintf(stderr, "cannot write JSON to %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Prints the verdict summary, emits JSON when requested, and returns the
/// process exit code: non-zero when a check failed or the requested JSON
/// could not be written.
inline int finish(const std::string& benchName = {}, const RunOptions& opts = {},
                  const exp::CampaignResult* campaign = nullptr,
                  const std::string& extraJson = {}) {
  const bool written =
      opts.jsonPath.empty() || writeJson(opts.jsonPath, benchName, opts, campaign, extraJson);
  const int failed = g_checksFailed.load(std::memory_order_relaxed);
  if (failed > 0) {
    std::printf("\n%d shape check(s) FAILED\n", failed);
    return 1;
  }
  std::printf("\nall shape checks passed\n");
  return written ? 0 : 1;
}

} // namespace dps::bench
