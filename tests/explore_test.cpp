// sched::explore — the exhaustive schedule-space oracle and invariant
// verifier: known-optimal workloads, dedup/prune soundness, policy audits,
// the mutant counterexample loop, and the replay's rejection of malformed
// traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "sched/cluster.hpp"
#include "sched/explore.hpp"
#include "support/error.hpp"
#include "svc/profile_cache.hpp"

namespace dps::sched {
namespace {

/// A hand-built two-phase class with perfect speedup: 10 s on one node,
/// 5 s on two, split into equal phases so the explorer has realloc
/// boundaries to branch on.  No migration state, so the oracle's
/// arithmetic is exactly the arithmetic of the hand computation below.
JobProfileTable unitProfiles() {
  ClassProfile cp;
  cp.name = "unit";
  cp.app = AppKind::Lu;
  cp.allocs = {1, 2};
  PhaseProfile one;
  one.nodes = 1;
  one.phaseSec = {5.0, 5.0};
  one.phaseEff = {1.0, 1.0};
  one.totalSec = 10.0;
  PhaseProfile two;
  two.nodes = 2;
  two.phaseSec = {2.5, 2.5};
  two.phaseEff = {1.0, 1.0};
  two.totalSec = 5.0;
  cp.byAlloc = {one, two};
  cp.stateBytes = 0;
  return JobProfileTable::fromProfiles({cp});
}

/// `count` unit jobs, all arriving at t = 0, on a two-node machine.
Workload unitWorkload(std::int32_t count) {
  Workload wl;
  wl.cfg.jobCount = count;
  for (std::int32_t i = 0; i < count; ++i) wl.jobs.push_back(Job{i, 0, 0.0});
  return wl;
}

ClusterConfig unitConfig() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  return cfg;
}

/// The explorer-scale engine-profiled setup the tools use, shrunk to a
/// four-node machine so unpruned searches stay fast in unit tests.
struct EngineSetup {
  JobProfileTable profiles;
  ClusterConfig cfg;

  explicit EngineSetup(std::int32_t nodes = 4)
      : profiles(svc::buildProfileTable(exploreMix(nodes), nodes, ProfileSettings{})),
        cfg(ClusterConfig::fromProfile(ProfileSettings{}.platform, nodes)) {}

  Workload workload(std::uint64_t seed, std::int32_t jobs = 3) const {
    WorkloadConfig wcfg;
    wcfg.seed = seed;
    wcfg.jobCount = jobs;
    wcfg.arrivalRatePerSec = 20.0; // dense: everything queues, policies contend
    wcfg.classes = exploreMix(cfg.nodes);
    return Workload::generate(wcfg, cfg.nodes);
  }
};

// Three identical perfect-speedup jobs on two nodes have a hand-computable
// optimum.  Makespan: 30 node-seconds of work on 2 nodes is >= 15 s
// (utilization <= 1), running each job wide back-to-back achieves it, and
// any reallocation only adds migration latency.  Mean slowdown: by the
// same work bound at most one job can be done by t=5 and at most two by
// t=10, so the sorted finish times are >= (5, 10, 15) and mean slowdown
// >= (1+2+3)/3 = 2; the same wide back-to-back schedule achieves it.
// Comparisons are EXPECT_NEAR at 1e-9 only because simulated time is
// integer nanoseconds rendered via *1e-9 (the cluster loop's own
// conversion); the underlying tick values are exact.
TEST(ExploreOracleTest, FindsKnownOptimalMakespan) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto res =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stats.complete);
  EXPECT_NEAR(res.bestObjective, 15.0, 1e-9);
  EXPECT_EQ(res.bestObjective, res.makespanSec);
}

TEST(ExploreOracleTest, FindsKnownOptimalMeanSlowdown) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto res =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::MeanSlowdown);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.bestObjective, 2.0, 1e-9);
  EXPECT_EQ(res.bestObjective, res.meanSlowdown);
}

TEST(ExploreOracleTest, OptimalTraceReplaysBitIdentically) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto res =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan);
  ASSERT_TRUE(res.found);
  const auto replay = replayTrace(unitConfig(), wl, profiles, res.trace);
  EXPECT_EQ(replay.makespanSec, res.makespanSec);
  EXPECT_EQ(replay.meanSlowdown, res.meanSlowdown);
  ASSERT_EQ(replay.jobs.size(), wl.jobs.size());
  for (const JobOutcome& j : replay.jobs) EXPECT_GT(j.finishSec, 0.0);
}

// Four interchangeable jobs make the search tree full of permuted paths to
// the same cluster state; the fingerprint dedup must collapse them.  Both
// searches are unpruned so the comparison isolates dedup alone.
TEST(ExploreOracleTest, DedupCutsStatesWithoutChangingTheOptimum) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(4);
  ExploreLimits withDedup;
  withDedup.prune = false;
  ExploreLimits without = withDedup;
  without.dedup = false;
  const auto a =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan, withDedup);
  const auto b =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan, without);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.bestObjective, b.bestObjective);
  EXPECT_GT(a.stats.statesDeduped, 0u);
  EXPECT_EQ(b.stats.statesDeduped, 0u);
  EXPECT_LT(a.stats.statesExplored, b.stats.statesExplored);
  // Exact counts: a seen-set that drops or merges keys moves them.
  EXPECT_EQ(a.stats.statesExplored, 19851u);
  EXPECT_EQ(a.stats.statesDeduped, 1300u);
  EXPECT_EQ(a.stats.schedulesSeen, 8850u);
  EXPECT_EQ(b.stats.statesExplored, 31483u);
  EXPECT_EQ(b.stats.schedulesSeen, 14526u);
}

// Machine::hash keys the dedup, so it must cover the complete
// search-relevant state: equal states hash equal, and a change to any one
// field -- to or from the -1 sentinels, to values past 2^31 -- or a swap of
// two jobs' slots changes it.  The sentinel base puts -1 in every narrow
// field, where a sign-extended pack would smear into its neighbour.
TEST(ExploreStateHashTest, EveryFieldMovesTheHash) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto cfg = unitConfig();
  const Machine m(cfg, wl, profiles);

  constexpr std::int64_t kWide = std::int64_t{1} << 33; // past 2^31 and 2^32
  MachineState live = m.initial();
  live.nowNs = 7'500'000'000;
  live.free = 1;
  live.jobs[0] = {JobSt::Running, 1, 0, 12'500'000'000, 5'000'000'000, -1};
  live.jobs[1] = {JobSt::Finished, 0, 2, 5'000'000'000, 0, 5'000'000'000};
  live.jobs[2] = {JobSt::Queued, 0, 0, 0, -1, -1};
  MachineState sentinel = live;
  sentinel.free = -1;
  for (JobState& js : sentinel.jobs) {
    js.alloc = -1;
    js.phase = -1;
    js.nextNs = -1;
  }

  const std::vector<std::int32_t> narrow = {-1, 0, 1, 2, 0x7fffffff};
  const std::vector<std::int64_t> wide = {-1, 0, 1, 5'000'000'000, kWide, kWide + 1};
  constexpr auto kLastSt = static_cast<std::uint8_t>(JobSt::Finished);
  for (const MachineState& base : {live, sentinel}) {
    const std::uint64_t h0 = m.hash(base);
    MachineState copy = base;
    EXPECT_EQ(m.hash(copy), h0) << "equal states must hash equal";
    const auto expectMoves = [&](const std::string& what,
                                 const std::function<void(MachineState&)>& edit) {
      MachineState s = base;
      edit(s);
      EXPECT_NE(m.hash(s), h0) << what;
    };
    for (const std::int64_t v : wide)
      if (v != base.nowNs) expectMoves("nowNs", [v](MachineState& s) { s.nowNs = v; });
    for (const std::int32_t v : narrow)
      if (v != base.free) expectMoves("free", [v](MachineState& s) { s.free = v; });
    for (std::size_t j = 0; j < base.jobs.size(); ++j) {
      const JobState& js = base.jobs[j];
      const auto jobMoves = [&](const char* field, const std::function<void(JobState&)>& edit) {
        expectMoves("job " + std::to_string(j) + " " + field,
                    [&](MachineState& s) { edit(s.jobs[j]); });
      };
      for (std::uint8_t st = 0; st <= kLastSt; ++st) {
        const auto to = static_cast<JobSt>(st);
        if (to != js.st) jobMoves("st", [to](JobState& x) { x.st = to; });
      }
      for (const std::int32_t v : narrow) {
        if (v != js.alloc) jobMoves("alloc", [v](JobState& x) { x.alloc = v; });
        if (v != js.phase) jobMoves("phase", [v](JobState& x) { x.phase = v; });
      }
      for (const std::int64_t v : wide) {
        if (v != js.nextNs) jobMoves("nextNs", [v](JobState& x) { x.nextNs = v; });
        if (v != js.startNs) jobMoves("startNs", [v](JobState& x) { x.startNs = v; });
        if (v != js.finishNs) jobMoves("finishNs", [v](JobState& x) { x.finishNs = v; });
      }
    }
    expectMoves("swap 0,1", [](MachineState& s) { std::swap(s.jobs[0], s.jobs[1]); });
    expectMoves("swap 1,2", [](MachineState& s) { std::swap(s.jobs[1], s.jobs[2]); });
  }
}

// Branch-and-bound with an admissible lower bound and strict-improvement
// incumbents must return the bit-identical optimum on every seed — on the
// real engine-profiled mix, migration costs and all.
TEST(ExploreOracleTest, PrunedEqualsUnprunedAcrossSeeds) {
  const EngineSetup setup;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const auto wl = setup.workload(seed);
    ExploreLimits pruned;
    ExploreLimits unpruned;
    unpruned.prune = false;
    for (const auto objective :
         {ExploreObjective::Makespan, ExploreObjective::MeanSlowdown}) {
      const auto p = exploreOptimal(setup.cfg, wl, setup.profiles, objective, pruned);
      const auto u = exploreOptimal(setup.cfg, wl, setup.profiles, objective, unpruned);
      ASSERT_TRUE(p.found && p.stats.complete) << "seed " << seed;
      ASSERT_TRUE(u.found && u.stats.complete) << "seed " << seed;
      EXPECT_EQ(p.bestObjective, u.bestObjective)
          << "seed " << seed << " objective " << exploreObjectiveName(objective);
      EXPECT_GT(p.stats.branchesPruned, 0u) << "seed " << seed;
    }
  }
}

TEST(ExploreOracleTest, ExternalUpperBoundKeepsAnEqualOptimumFindable) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto free =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan);
  ASSERT_TRUE(free.found);
  ExploreLimits limits;
  // Exactly the optimum: branches strictly above it are cut, an equal
  // schedule must still be found and proven.
  limits.upperBound = free.bestObjective;
  const auto res =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan, limits);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.bestObjective, free.bestObjective);
}

TEST(ExploreOracleTest, MaxStatesTruncationIsReportedHonestly) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(4);
  ExploreLimits limits;
  limits.maxStates = 10;
  const auto res =
      exploreOptimal(unitConfig(), wl, profiles, ExploreObjective::Makespan, limits);
  EXPECT_FALSE(res.stats.complete);
}

TEST(ExploreVerifierTest, SpaceInvariantsHoldOnTheUnitSpace) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  const auto rep = verifySpace(unitConfig(), wl, profiles);
  EXPECT_TRUE(rep.pass()) << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().detail);
  EXPECT_TRUE(rep.stats.complete);
  EXPECT_GT(rep.totalChecks(), 0u);
}

TEST(ExploreVerifierTest, SpaceInvariantsHoldOnTheEngineMix) {
  const EngineSetup setup;
  const auto rep = verifySpace(setup.cfg, setup.workload(1), setup.profiles);
  EXPECT_TRUE(rep.pass()) << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().detail);
  EXPECT_TRUE(rep.stats.complete);
}

// Policy audits run on an eight-node machine: the derived starvation
// bound's premise is that every class fits in at most half the cluster
// (on four nodes fcfs-rigid legitimately serializes full-width jobs and
// the bound would misfire).
TEST(ExploreVerifierTest, EveryPolicyPassesTheFullAuditWithAndWithoutBackfill) {
  const EngineSetup setup(8);
  const auto wl = setup.workload(1, 4);
  for (const std::string& name : policyNames()) {
    for (const bool backfill : {false, true}) {
      auto policy = makePolicy(name);
      PolicyVerifyOptions opts;
      opts.cluster = setup.cfg;
      opts.cluster.easyBackfill = backfill;
      const auto res = verifyPolicy(opts, wl, setup.profiles, *policy);
      EXPECT_TRUE(res.report.pass())
          << name << (backfill ? "+backfill" : "") << ": "
          << (res.report.violations.empty() ? "" : res.report.violations.front().detail);
      EXPECT_GT(res.report.totalChecks(), 0u);
      // Wait telescoping and feasibility were actually evaluated.
      EXPECT_GT(res.report.checks[static_cast<std::size_t>(Invariant::WaitTelescoping)], 0u);
      EXPECT_GT(res.report.checks[static_cast<std::size_t>(Invariant::FeasibleAllocation)],
                0u);
    }
  }
}

// The broken policy must be caught, its counterexample must name the
// violated invariant, and replaying the same run through simulateCluster
// must reproduce the violation and the recorded decision log byte for
// byte — the counterexample is a proof, not a report.
TEST(ExploreVerifierTest, MutantYieldsAReplayableCounterexample) {
  const EngineSetup setup(8);
  const auto wl = setup.workload(1, 4);
  HeadHoldMutant mutant;
  PolicyVerifyOptions opts;
  opts.cluster = setup.cfg;
  const auto res = verifyPolicy(opts, wl, setup.profiles, mutant);
  ASSERT_FALSE(res.report.pass());
  const bool starved =
      std::any_of(res.report.violations.begin(), res.report.violations.end(),
                  [](const InvariantViolation& v) {
                    return v.invariant == Invariant::NoStarvation;
                  });
  EXPECT_TRUE(starved);
  EXPECT_FALSE(res.recordJson.empty());
  EXPECT_FALSE(res.explainText.empty());

  // Independent replay: fresh recorder, fresh loop, same audit.
  obs::Recorder rec;
  ClusterConfig cc = setup.cfg;
  cc.recorder = &rec;
  HeadHoldMutant again;
  const auto metrics = simulateCluster(cc, wl, setup.profiles, again);
  const auto replayAudit = auditRecord(metrics, rec, wl, setup.profiles,
                                       derivedStarvationBound(wl, setup.profiles));
  ASSERT_EQ(replayAudit.violations.size(), res.report.violations.size());
  for (std::size_t i = 0; i < replayAudit.violations.size(); ++i) {
    EXPECT_EQ(replayAudit.violations[i].invariant, res.report.violations[i].invariant);
    EXPECT_EQ(replayAudit.violations[i].job, res.report.violations[i].job);
    EXPECT_EQ(replayAudit.violations[i].detail, res.report.violations[i].detail);
  }
  EXPECT_EQ(rec.jsonString(), res.recordJson);
}

TEST(ExploreVerifierTest, ShippedPoliciesStayUnderTheDerivedStarvationBound) {
  const EngineSetup setup(8);
  const auto wl = setup.workload(1, 4);
  const double bound = derivedStarvationBound(wl, setup.profiles);
  ASSERT_GT(bound, 0.0);
  for (const std::string& name : policyNames()) {
    auto policy = makePolicy(name);
    const auto metrics = simulateCluster(setup.cfg, wl, setup.profiles, *policy);
    for (const JobOutcome& j : metrics.jobs)
      EXPECT_LE(j.waitSec(), bound) << name << " job " << j.id;
  }
}

/// Replays `trace` and expects the machine to refuse it with `text`.
void expectRejected(const EngineSetup& setup, const Workload& wl,
                    const std::vector<ExploreDecision>& trace, const std::string& text) {
  try {
    replayTrace(setup.cfg, wl, setup.profiles, trace);
    ADD_FAILURE() << "replay accepted a trace it must reject with: " << text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
  }
}

// A real run's decision trace, corrupted six ways; each corruption must be
// caught by the replay check written for it, not by some later symptom.
TEST(ExploreReplayTest, ReplayRejectsMalformedTraces) {
  const EngineSetup setup;
  const auto wl = setup.workload(3, 6);
  Equipartition policy;
  const auto m = simulateCluster(setup.cfg, wl, setup.profiles, policy);
  const auto good = decisionTrace(setup.cfg, wl, setup.profiles, m);
  ASSERT_NO_THROW(replayTrace(setup.cfg, wl, setup.profiles, good));
  using Kind = ExploreDecision::Kind;
  const auto find = [&good](const std::function<bool(const ExploreDecision&)>& pred) {
    const auto it = std::find_if(good.begin(), good.end(), pred);
    if (it == good.end()) throw std::logic_error("the run has no decision to corrupt");
    return static_cast<std::size_t>(it - good.begin());
  };
  const auto arrivalNs = [&wl](std::int32_t j) {
    return seconds(wl.jobs[static_cast<std::size_t>(j)].arrivalSec).count();
  };

  auto bad = good;
  bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(
                              find([](const ExploreDecision& d) { return d.kind == Kind::Keep; })));
  expectRejected(setup, wl, bad, "trace misses a boundary decision");

  bad = good;
  bad.push_back(good[good.size() / 2]);
  expectRejected(setup, wl, bad, "trace has two decisions for one (instant, job)");

  bad = good;
  bad[find([](const ExploreDecision& d) { return d.kind == Kind::Start; })].kind = Kind::Keep;
  expectRejected(setup, wl, bad, "trace has a non-start decision for a queued job");

  // A start at an instant where another job holds nodes, widened to the
  // whole machine.
  const auto overlaps = [&m](const ExploreDecision& d) {
    const double t = static_cast<double>(d.timeNs) * 1e-9;
    return d.kind == Kind::Start &&
           std::any_of(m.jobs.begin(), m.jobs.end(), [&](const JobOutcome& o) {
             return o.id != d.job && o.startSec <= t && t < o.finishSec;
           });
  };
  bad = good;
  bad[find(overlaps)].toNodes = setup.cfg.nodes;
  expectRejected(setup, wl, bad, "trace oversubscribes the cluster");

  bad = good;
  ExploreDecision late = good.back();
  late.timeNs += seconds(1e3).count();
  bad.push_back(late);
  expectRejected(setup, wl, bad, "trace has decisions the machine never reached");

  bad = good;
  const std::size_t early = find([&](const ExploreDecision& d) {
    return d.kind == Kind::Start && arrivalNs(d.job) > 0;
  });
  bad[early].timeNs = arrivalNs(bad[early].job) - 1;
  expectRejected(setup, wl, bad, "trace stalls");
}

// Three hand-placed jobs: job 2 starts before the older job 1.  Without
// the backfilled flag that is an illegal overtake; with it the audit passes.
TEST(ExploreVerifierTest, AuditFlagsAnUnbackfilledOvertake) {
  const auto profiles = unitProfiles();
  const auto wl = unitWorkload(3);
  ClusterMetrics m;
  m.nodes = 2;
  for (const double start : {0.0, 5.0, 1.0}) {
    JobOutcome o;
    o.id = static_cast<std::int32_t>(m.jobs.size());
    o.startSec = start;
    o.finishSec = start + 10;
    o.allocs = {1, 1};
    o.wait.totalNs = seconds(start).count();
    o.wait.byReason[static_cast<std::size_t>(obs::WaitReason::HeadOfLine)] = o.wait.totalNs;
    m.jobs.push_back(o);
  }
  const obs::Recorder empty;
  const auto rep = auditRecord(m, empty, wl, profiles, 1e9);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].invariant, Invariant::BackfillNoHeadDelay);
  EXPECT_EQ(rep.violations[0].job, 2);

  m.jobs[2].backfilled = true;
  EXPECT_TRUE(auditRecord(m, empty, wl, profiles, 1e9).pass());
}

TEST(ExploreApiTest, FromProfilesRoundTripsHandBuiltTables) {
  const auto profiles = unitProfiles();
  EXPECT_EQ(profiles.classCount(), 1u);
  const ClassProfile& cp = profiles.of(0);
  EXPECT_EQ(cp.phases(), 2);
  EXPECT_EQ(cp.bestSec(), 5.0);
  EXPECT_EQ(cp.at(1).totalSec, 10.0);
  // remainSec suffix sums were finalized on ingestion.
  EXPECT_EQ(cp.at(2).remainingFrom(0), 5.0);
  EXPECT_EQ(cp.at(2).remainingFrom(1), 2.5);
}

TEST(ExploreApiTest, InvariantNamesAreStableSlugs) {
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    const auto inv = static_cast<Invariant>(i);
    EXPECT_NE(invariantName(inv), nullptr);
    EXPECT_NE(invariantSummary(inv), nullptr);
    const std::string slug = invariantName(inv);
    EXPECT_EQ(slug.find(' '), std::string::npos) << slug;
  }
}

} // namespace
} // namespace dps::sched
