// dps_explore — exhaustive schedule-space search as a policy oracle and an
// invariant verifier (sched::explore).
//
// The cluster event loop is deterministic, so on a small workload every
// schedule any policy could produce lives in a finite decision space: at
// each instant, start-or-hold each queued job (at any feasible allocation)
// and keep/shrink/grow each running job at its phase boundary.  This tool
// walks that space depth-first with 64-bit state-hash deduplication and
// branch-and-bound on the profile table's remaining-time suffix sums, and
// uses the result two ways:
//
//   --optimality  proves the optimal makespan and mean slowdown, then
//                 scores the five shipped policy configurations (the four
//                 policies plus fcfs-rigid under EASY backfill) as a
//                 percentage of optimal.  The optimum is proven, not
//                 sampled: the pruned search is re-run unpruned and must
//                 return the bit-identical objective, and replaying the
//                 optimal decision trace through the instant machine must
//                 reproduce it exactly.
//   --verify      exhaustively checks the structural invariants over the
//                 whole reachable space (node conservation, feasible
//                 allocations, grow-from-free, shrink byte bounds, wait
//                 telescoping), audits every policy x backfill run's
//                 flight record against the full typed invariant set, and
//                 demonstrates the counterexample path with an
//                 intentionally broken mutant policy (head-hold): its
//                 violation is emitted as a flight-record decision trace
//                 (--counterexample PATH) and replay-confirmed.
//
//   $ dps_explore --smoke --json EXPLORE_smoke.json
//   $ dps_explore --optimality --max-jobs 4 --nodes 8
//   $ dps_explore --verify --counterexample counterexample.json
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "sched/cluster.hpp"
#include "sched/explore.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

namespace {

void writeStats(JsonWriter& w, const sched::ExploreStats& st) {
  w.beginObject()
      .field("states_explored", static_cast<std::uint64_t>(st.statesExplored))
      .field("states_deduped", static_cast<std::uint64_t>(st.statesDeduped))
      .field("branches_pruned", static_cast<std::uint64_t>(st.branchesPruned))
      .field("schedules_seen", static_cast<std::uint64_t>(st.schedulesSeen))
      .field("complete", st.complete)
      .endObject();
}

void writeReport(JsonWriter& w, const sched::VerifyReport& rep) {
  w.beginObject()
      .field("pass", rep.pass())
      .field("violations", static_cast<std::uint64_t>(rep.violations.size()))
      .field("checks_total", rep.totalChecks());
  w.key("checks_per_invariant").beginObject();
  for (std::size_t i = 0; i < sched::kInvariantCount; ++i)
    w.field(sched::invariantName(static_cast<sched::Invariant>(i)), rep.checks[i]);
  w.endObject();
  w.key("violation_invariants").beginArray();
  for (const auto& v : rep.violations) w.value(sched::invariantName(v.invariant));
  w.endArray().endObject();
}

/// The "optimality" block: both proven optima, their search effort, and
/// every oracle configuration as a percentage of optimal.
void writeOptimality(JsonWriter& w, const sched::OracleComparison& oracle) {
  const auto& mk = oracle.makespan;
  const auto& sl = oracle.slowdown;
  w.beginObject()
      .field("optimal_makespan_sec", mk.makespanSec)
      .field("optimal_mean_slowdown", sl.meanSlowdown)
      .field("best_policy_makespan_pct", 100.0 * mk.makespanSec / oracle.bestMakespanSec)
      .field("best_policy_slowdown_pct", 100.0 * sl.meanSlowdown / oracle.bestMeanSlowdown)
      .field("trace_decisions", static_cast<std::uint64_t>(mk.trace.size()));
  w.key("makespan_search");
  writeStats(w, mk.stats);
  w.key("slowdown_search");
  writeStats(w, sl.stats);
  w.key("policies").beginArray();
  const auto cfgs = sched::oraclePolicies();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto& m = oracle.runs[i];
    w.beginObject()
        .field("policy", cfgs[i].label)
        .field("backfill", cfgs[i].backfill)
        .field("makespan_sec", m.makespanSec)
        .field("mean_slowdown", m.meanSlowdown)
        .field("makespan_pct_of_optimal", 100.0 * mk.makespanSec / m.makespanSec)
        .field("slowdown_pct_of_optimal", 100.0 * sl.meanSlowdown / m.meanSlowdown)
        .endObject();
  }
  w.endArray().endObject();
}

/// One policy x backfill flight-record audit.
struct PolicyAudit {
  std::string policy;
  bool backfill = false;
  sched::VerifyReport report;
};

/// What --verify found: the space walk, the policy audits and the mutant.
struct Verification {
  sched::VerifyReport space;
  std::vector<PolicyAudit> audits;
  sched::VerifyReport mutant;
  bool starved = false;
  bool replayConfirmed = false;
};

void writeVerification(JsonWriter& w, const Verification& v) {
  w.beginObject();
  w.key("space").beginObject();
  w.key("stats");
  writeStats(w, v.space.stats);
  w.key("report");
  writeReport(w, v.space);
  w.endObject();
  w.key("policies").beginArray();
  for (const PolicyAudit& a : v.audits) {
    w.beginObject().field("policy", a.policy).field("backfill", a.backfill).key("report");
    writeReport(w, a.report);
    w.endObject();
  }
  w.endArray();
  w.key("mutant")
      .beginObject()
      .field("violations", static_cast<std::uint64_t>(v.mutant.violations.size()))
      .field("starvation_violation", v.starved)
      .field("replay_confirmed", v.replayConfirmed)
      .key("report");
  writeReport(w, v.mutant);
  w.endObject().endObject();
}

} // namespace

int run(Cli& cli) {
  const auto nodes = cli.integer("nodes", 8, "cluster size in nodes (explorer scale: [4, 16])");
  const auto seed = cli.integer("seed", 1, "workload seed (arrivals + class mix)");
  auto maxJobs = cli.integer("max-jobs", 4, "number of arriving jobs ([1, 8] — the space is "
                             "exponential in this)");
  const auto arrivalRate = cli.real("arrival-rate", 20.0, "Poisson arrival rate [jobs/s] "
                                    "(dense by default: explorer-scale jobs run ~1-3s, so 20/s "
                                    "queues everything and the policies genuinely contend)");
  const auto jobs = cli.jobs("jobs", "concurrent profile simulations (0 = hardware concurrency)");
  const auto maxStates = cli.integer("max-states", 20000000, "state-expansion cap; hitting it "
                                     "degrades the optimum to an unproven upper bound");
  Artifact& json = cli.artifact("json", "write the report (optimality table, verify verdicts, "
                                "check results) to this JSON file");
  Artifact& counterexample = cli.artifact("counterexample", "write the mutant policy's "
                                          "violating flight record (the replayable "
                                          "counterexample) to this JSON file");
  bool optimality = cli.flag("optimality", "prove the optimal makespan / mean slowdown and "
                                           "score every policy as % of optimal");
  bool verify = cli.flag("verify", "exhaustively check the invariant set (space + every "
                                   "policy x backfill + the head-hold mutant)");
  const bool noProve = cli.flag("no-prove", "skip the unpruned re-search that proves the "
                                "pruned optimum (faster on larger workloads)");
  const bool smoke = cli.flag("smoke", "reduced CI workload (3 jobs) running both modes");
  if (nodes < 4 || nodes > 16)
    throw ConfigError("--nodes must be in [4, 16] (exhaustive search scale)");
  if (maxJobs < 1 || maxJobs > 8) throw ConfigError("--max-jobs must be in [1, 8]");
  if (arrivalRate <= 0) throw ConfigError("--arrival-rate must be positive");
  if (maxStates < 1) throw ConfigError("--max-states must be >= 1");
  if (smoke) {
    maxJobs = 3;
    optimality = verify = true;
  }
  if (!optimality && !verify) optimality = verify = true;
  // The derived starvation bound assumes every class fits in at most half
  // the machine; on smaller clusters a full-width job legitimately
  // serializes the queue and the NoStarvation audit would misfire.
  if (verify && nodes < 8)
    throw ConfigError("--verify requires --nodes >= 8: the starvation bound assumes every "
                      "class fits in at most half the machine");
  if (counterexample && !verify)
    throw ConfigError("--counterexample is written only in --verify mode");
  cli.finish();

  sched::WorkloadConfig wcfg;
  wcfg.seed = static_cast<std::uint64_t>(seed);
  wcfg.jobCount = static_cast<std::int32_t>(maxJobs);
  wcfg.arrivalRatePerSec = arrivalRate;
  wcfg.classes = sched::exploreMix(static_cast<std::int32_t>(nodes));
  const auto workload = sched::Workload::generate(wcfg, static_cast<std::int32_t>(nodes));
  std::printf("workload: %s\n", workload.describe().c_str());

  const sched::ProfileSettings settings;
  const obs::WallClock buildClock;
  const auto profiles =
      svc::buildProfileTable(workload.cfg.classes, static_cast<std::int32_t>(nodes), settings,
                             jobs);
  std::printf("profiled %zu classes in %.1fs\n", profiles.classCount(), buildClock.elapsedSec());
  Table prof("job profiles (per-phase model from PDEXEC runs)");
  prof.header({"class", "allocs", "phases", "best [s]", "worst [s]", "state [MB]"});
  for (std::size_t c = 0; c < profiles.classCount(); ++c) {
    const auto& cp = profiles.of(c);
    std::ostringstream al;
    for (std::size_t i = 0; i < cp.allocs.size(); ++i) al << (i ? "," : "") << cp.allocs[i];
    double worst = 0;
    for (const auto& p : cp.byAlloc) worst = std::max(worst, p.totalSec);
    prof.row({cp.name, al.str(), std::to_string(cp.phases()), Table::num(cp.bestSec(), 2),
              Table::num(worst, 2), Table::num(cp.stateBytes / 1e6, 1)});
  }
  prof.print(std::cout);

  const auto ccfg =
      sched::ClusterConfig::fromProfile(settings.platform, static_cast<std::int32_t>(nodes));
  sched::ExploreLimits limits;
  limits.maxStates = static_cast<std::uint64_t>(maxStates);

  std::optional<sched::OracleComparison> oracle;
  if (optimality) {
    const obs::WallClock searchClock;
    oracle = sched::compareWithOptimum(ccfg, workload, profiles, limits);
    const auto& mk = oracle->makespan;
    const auto& sl = oracle->slowdown;
    std::printf("oracle: optimal makespan %.3fs (%llu states, %llu deduped, %llu pruned), "
                "optimal mean slowdown %.3f (%llu states) in %.1fs\n",
                mk.makespanSec, static_cast<unsigned long long>(mk.stats.statesExplored),
                static_cast<unsigned long long>(mk.stats.statesDeduped),
                static_cast<unsigned long long>(mk.stats.branchesPruned), sl.meanSlowdown,
                static_cast<unsigned long long>(sl.stats.statesExplored),
                searchClock.elapsedSec());

    check(mk.found && mk.stats.complete, "makespan optimum proven (search complete)");
    check(sl.found && sl.stats.complete, "mean-slowdown optimum proven (search complete)");
    check(mk.stats.statesExplored > 0 && sl.stats.statesExplored > 0,
          "explorer expanded states");
    check(mk.stats.branchesPruned + sl.stats.branchesPruned > 0,
          "branch-and-bound pruning fired");

    // The pruned search is exact by construction (admissible bound, strict
    // incumbents), but that argument deserves a cross-check: on a prefix
    // small enough for the *unpruned* walk to terminate (<= 3 jobs), both
    // searches must return the bit-identical objective.  Under --smoke the
    // prefix is the whole workload, so CI proves the full smoke optimum.
    if (!noProve) {
      sched::Workload proofWl = workload;
      if (proofWl.jobs.size() > 3) {
        proofWl.jobs.resize(3);
        proofWl.cfg.jobCount = 3;
        std::printf("prune-soundness proof on the first 3 jobs (the unpruned walk must "
                    "terminate)\n");
      }
      sched::ExploreLimits pruned = limits;
      sched::ExploreLimits unpruned = limits;
      unpruned.prune = false;
      for (const auto objective :
           {sched::ExploreObjective::Makespan, sched::ExploreObjective::MeanSlowdown}) {
        const auto p = sched::exploreOptimal(ccfg, proofWl, profiles, objective, pruned);
        const auto u = sched::exploreOptimal(ccfg, proofWl, profiles, objective, unpruned);
        const std::string label = sched::exploreObjectiveName(objective);
        check(p.stats.complete && u.stats.complete,
              "proof searches complete (" + label + ")");
        check(p.bestObjective == u.bestObjective,
              "pruned == unpruned optimal " + label + " (bit-identical)");
        check(u.stats.statesDeduped > 0, "state-hash dedup fired (" + label + " proof)");
      }
    }

    // Oracle self-validation: replaying the winning decision trace through
    // the instant machine reproduces the objective exactly.
    const auto& mkReplay = oracle->makespanReplay;
    const auto& slReplay = oracle->slowdownReplay;
    check(mkReplay.makespanSec == mk.makespanSec && mkReplay.meanSlowdown == mk.meanSlowdown,
          "optimal makespan trace replays bit-identically");
    check(slReplay.makespanSec == sl.makespanSec && slReplay.meanSlowdown == sl.meanSlowdown,
          "optimal mean-slowdown trace replays bit-identically");

    Table t("policy optimality (" + std::to_string(workload.jobs.size()) + " jobs, " +
            std::to_string(nodes) + " nodes, seed " + std::to_string(seed) + ")");
    t.header({"policy", "makespan [s]", "% of optimal", "mean slowdown", "% of optimal"});
    const auto cfgs = sched::oraclePolicies();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const auto& m = oracle->runs[i];
      const double mkPct = 100.0 * mk.makespanSec / m.makespanSec;
      const double slPct = 100.0 * sl.meanSlowdown / m.meanSlowdown;
      check(mk.makespanSec <= m.makespanSec + 1e-9,
            "optimal makespan <= " + cfgs[i].label + " makespan");
      check(sl.meanSlowdown <= m.meanSlowdown + 1e-9,
            "optimal mean slowdown <= " + cfgs[i].label + " mean slowdown");
      t.row({cfgs[i].label, Table::num(m.makespanSec, 2), Table::num(mkPct, 1),
             Table::num(m.meanSlowdown, 3), Table::num(slPct, 1)});
    }
    t.row({"(optimal)", Table::num(mk.makespanSec, 2), "100",
           Table::num(sl.meanSlowdown, 3), "100"});
    t.print(std::cout);
  }

  std::optional<Verification> verified;
  if (verify) {
    const obs::WallClock verifyClock;
    // The unpruned space walk is the expensive half of verification (no
    // B&B — pruning could hide violating states), so it runs on at most
    // the first three jobs; the policy audits below cover the full
    // workload through the flight record.
    sched::Workload spaceWorkload = workload;
    if (spaceWorkload.jobs.size() > 3) {
      spaceWorkload.jobs.resize(3);
      spaceWorkload.cfg.jobCount = 3;
      std::printf("space walk truncated to the first 3 jobs (unpruned search; the policy "
                  "audits below still cover all %zu)\n",
                  workload.jobs.size());
    }
    Verification& v = verified.emplace();
    v.space = sched::verifySpace(ccfg, spaceWorkload, profiles, limits);
    const auto& space = v.space;
    std::printf("verify: %llu reachable states, %llu structural checks, %zu violations "
                "(%.1fs)\n",
                static_cast<unsigned long long>(space.stats.statesExplored),
                static_cast<unsigned long long>(space.totalChecks()), space.violations.size(),
                verifyClock.elapsedSec());
    check(space.pass() && space.stats.complete,
          "space invariants hold over the entire reachable decision space");
    check(space.stats.statesExplored > 0 && space.totalChecks() > 0,
          "space verification expanded states and evaluated checks");

    const double bound = sched::derivedStarvationBound(workload, profiles);
    std::printf("derived starvation bound: %.1fs\n", bound);
    Table vt("policy invariant audits (full flight-record checks)");
    vt.header({"policy", "backfill", "checks", "violations", "max wait [s]"});
    for (const std::string& name : sched::policyNames()) {
      for (const bool backfill : {false, true}) {
        auto policy = sched::makePolicy(name);
        sched::PolicyVerifyOptions vo;
        vo.cluster = ccfg;
        vo.cluster.easyBackfill = backfill;
        const auto res = sched::verifyPolicy(vo, workload, profiles, *policy);
        check(res.report.pass(), "invariants hold: " + name +
                                     (backfill ? " +backfill" : " (no backfill)"));
        double maxWait = 0;
        for (const auto& j : res.metrics.jobs) maxWait = std::max(maxWait, j.waitSec());
        vt.row({name, backfill ? "on" : "off", std::to_string(res.report.totalChecks()),
                std::to_string(res.report.violations.size()), Table::num(maxWait, 1)});
        v.audits.push_back(PolicyAudit{name, backfill, res.report});
      }
    }
    vt.print(std::cout);

    // The mutant demonstrates the counterexample path: head-hold serializes
    // the queue, NoStarvation fires, and the flight record is the
    // counterexample — deterministic, so a replay reproduces it exactly.
    sched::HeadHoldMutant mutant;
    sched::PolicyVerifyOptions mo;
    mo.cluster = ccfg;
    const auto mres = sched::verifyPolicy(mo, workload, profiles, mutant);
    v.mutant = mres.report;
    v.starved = std::any_of(
        mres.report.violations.begin(), mres.report.violations.end(),
        [](const auto& v) { return v.invariant == sched::Invariant::NoStarvation; });
    double mutantMaxWait = 0;
    for (const auto& j : mres.metrics.jobs) mutantMaxWait = std::max(mutantMaxWait, j.waitSec());
    std::printf("head-hold mutant: max wait %.1fs vs bound %.1fs\n", mutantMaxWait, bound);
    check(!mres.report.pass(), "head-hold mutant violates the invariant set");
    check(v.starved, "head-hold mutant starves a job beyond the bound");
    const auto mres2 = sched::verifyPolicy(mo, workload, profiles, mutant);
    v.replayConfirmed = mres2.recordJson == mres.recordJson &&
                        mres2.report.violations.size() == mres.report.violations.size();
    check(v.replayConfirmed, "mutant counterexample replays byte-identically");
    if (!mres.report.pass()) {
      const auto& v = mres.report.violations.front();
      std::printf("mutant counterexample: %s — job %d at t=%.1fs: %s\n",
                  sched::invariantName(v.invariant), v.job, v.tSec, v.detail.c_str());
      if (!mres.explainText.empty()) std::printf("%s", mres.explainText.c_str());
    }
    if (counterexample) {
      JsonWriter w(counterexample.stream());
      w.beginObject().field("policy", mutant.name()).field("replay_confirmed", v.replayConfirmed);
      w.key("violations").beginArray();
      for (const auto& v : mres.report.violations)
        w.beginObject()
            .field("invariant", sched::invariantName(v.invariant))
            .field("job", v.job)
            .field("t_sec", v.tSec)
            .field("detail", v.detail)
            .endObject();
      w.endArray();
      w.key("record").raw(mres.recordJson);
      w.endObject();
      DPS_CHECK(w.closed(), "unbalanced counterexample JSON");
      counterexample.stream() << "\n";
    }
  }

  if (json) {
    JsonWriter w(json.stream());
    w.beginObject()
        .field("nodes", nodes)
        .field("seed", seed)
        .field("job_count", workload.jobs.size())
        .field("arrival_rate", arrivalRate)
        .field("workload", workload.describe());
    writeChecks(w);
    if (oracle) {
      w.key("optimality");
      writeOptimality(w, *oracle);
    }
    if (verified) {
      w.key("verify");
      writeVerification(w, *verified);
    }
    w.endObject();
    DPS_CHECK(w.closed(), "unbalanced explore JSON");
    json.stream() << "\n";
  }
  return checkSummary() == 0 ? 0 : 1;
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
