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
// aggregates and check verdicts for cross-PR trajectory tracking.  Each
// bench's body is `int run(Cli&)`, driven by dps::runMain.
#pragma once

#include <functional>
#include <string>

#include "experiments/campaign.hpp"
#include "experiments/scenario.hpp"
#include "lu/builder.hpp"
#include "support/check.hpp"
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

/// The flags every bench shares, declared on the bench's Cli; benches take
/// no others, so constructing it also finishes the command line.
struct BenchArgs {
  explicit BenchArgs(Cli& cli, bool withSmoke = false)
      : smoke(withSmoke &&
              cli.flag("smoke", "reduced-size CI run; skips paper-scale shape checks")),
        jobs(cli.jobs("jobs", "concurrent simulations (0 = hardware concurrency)")),
        json(cli.artifact("json", "write results + check verdicts to this JSON file")) {
    cli.finish();
  }

  bool smoke;
  unsigned jobs; // concurrent simulations, --jobs 0 resolved to the hardware's
  Artifact& json;
};

/// Worker count for a shared caller-participates pool: the calling thread
/// plus this many workers give exactly `jobs` concurrent bodies (0 workers =
/// serial inline execution).
inline unsigned poolWorkers(const BenchArgs& a) { return a.jobs - 1; }

/// Writes the bench's JSON artifact when --json asked for one — name, job
/// count, check verdicts and (when the bench is campaign-based) the full
/// observation set + aggregates — then prints the verdict summary and
/// returns the process exit code: non-zero when a check failed.
/// `extra` lets non-Campaign benches (e.g. the sched cluster sweep) write
/// their own top-level members (`w.key(...)` then the value) into the open
/// document object.
inline int finish(const std::string& benchName, const BenchArgs& args,
                  const exp::CampaignResult* campaign = nullptr,
                  const std::function<void(JsonWriter&)>& extra = {}) {
  if (args.json) {
    JsonWriter w(args.json.stream());
    w.beginObject().field("bench", benchName).field("jobs", args.jobs);
    writeChecks(w);
    if (campaign) {
      w.key("campaign");
      campaign->writeJson(w);
    }
    if (extra) extra(w);
    w.endObject();
    DPS_CHECK(w.closed(), "unbalanced bench JSON");
    args.json.stream() << "\n";
  }
  return checkSummary() == 0 ? 0 : 1;
}

} // namespace dps::bench
