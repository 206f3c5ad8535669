// sched::explore — exhaustive schedule-space search over the cluster
// scheduler's decision points: a model checker for scheduling policies.
//
// The cluster event loop is deterministic, so for a fixed (workload,
// profiles, config) the only degrees of freedom are the decisions a policy
// returns: start a queued job now or hold it (and at which feasible
// allocation), and keep / shrink / grow each running job at its phase
// boundaries.  On small workloads (<= 8 jobs, <= 16 nodes) that decision
// space is finite and enumerable.  This module walks it depth-first the way
// SimGrid's DFSExplorer walks interleavings: snapshot the cluster state,
// fork every branch a policy could take, restore, and deduplicate revisited
// states with an FNV-1a fingerprint (support/fingerprint.hpp) so the search
// visits each reachable cluster state once.
//
// Decision model.  The explorer advances the same sched::Machine whose
// transitions simulateCluster fires (machine.hpp), so its schedule
// objectives are bit-comparable with the event loop's metrics.  At every
// instant where at least one decision is open, it enumerates the *joint*
// decision: each running job at a boundary picks any feasible target
// allocation (keep, shrink, or grow), then each queued job either starts
// at any feasible allocation that fits the remaining free nodes or waits.
// Joint enumeration makes the reachable set a superset of what any Policy
// can induce through the sequential event loop (equal-time DES events fire
// in *some* order; the explorer covers every order's outcome), which is
// exactly what an oracle needs: no policy can beat the optimum found here.
//
// Two consumers:
//   * oracle (exploreOptimal) — branch-and-bound for the true optimal
//     makespan or mean slowdown.  The admissible lower bound is built from
//     the profile table's remaining-time suffix sums: a job that still has
//     phases p.. to run needs at least sum_{q>=p} min_alloc phaseSec[q]
//     seconds, regardless of any future decisions (migration delays ignored
//     — the bound stays admissible).  Pruning with an admissible bound and
//     strict-improvement incumbents returns the same optimum as the
//     unpruned search (tests assert bit-identical objective values).
//   * verifier (verifySpace / verifyPolicy) — typed invariants checked
//     either structurally over the entire reachable space (no objective
//     pruning) or over one policy's actual run via the obs::Recorder
//     decision audit log, with the flight record itself serving as the
//     replayable counterexample when a check fails.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/cluster.hpp"
#include "sched/machine.hpp"
#include "sched/metrics.hpp"
#include "sched/policy.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"

namespace dps::obs {
class Recorder;
}

namespace dps::sched {

/// What the oracle minimizes.
enum class ExploreObjective : std::uint8_t { Makespan, MeanSlowdown };
const char* exploreObjectiveName(ExploreObjective o);

const char* exploreDecisionKindName(ExploreDecision::Kind k);

/// Search effort counters.
struct ExploreStats {
  std::uint64_t statesExplored = 0;  ///< instant-states expanded
  std::uint64_t statesDeduped = 0;   ///< subtrees cut by the state hash
  std::uint64_t branchesPruned = 0;  ///< subtrees cut by the B&B bound
  std::uint64_t schedulesSeen = 0;   ///< complete schedules evaluated
  bool complete = true;              ///< false when maxStates truncated
};

/// Search knobs.  Defaults run the full exhaustive search.
struct ExploreLimits {
  /// Hard cap on expanded states; exceeding it clears ExploreStats::complete
  /// (the result is then an upper bound, not a proven optimum).
  std::uint64_t maxStates = 20'000'000;
  bool prune = true; ///< branch-and-bound on the admissible lower bound
  /// FNV-1a state-hash deduplication.  The seen set keeps only each
  /// state's 64-bit hash, so a collision would silently drop a distinct
  /// state and its subtree.  Over n explored states the chance of any
  /// collision is at most n^2 / 2^65: about 6e-8 for the 1 515 146 states
  /// of perfbench's explore-oracle run.
  bool dedup = true;
  /// External upper bound on the objective (e.g. the best policy's value).
  /// Branches are cut only when their lower bound strictly exceeds it, so
  /// an optimum equal to the bound is still found and proven.  <= 0 = off.
  double upperBound = 0;
};

/// The oracle's answer: the optimal schedule and how hard it was to prove.
struct ExploreResult {
  ExploreObjective objective = ExploreObjective::Makespan;
  bool found = false;          ///< false only if maxStates hit before any schedule
  double bestObjective = 0;    ///< optimal makespanSec or meanSlowdown
  double makespanSec = 0;      ///< of the best schedule
  double meanSlowdown = 0;     ///< of the best schedule
  std::vector<ExploreDecision> trace; ///< the optimal schedule's decisions
  ExploreStats stats;
};

/// Exhaustive branch-and-bound search for the optimal schedule.  The
/// config contributes nodes and the migration cost model; policy-only
/// fields (backfill, recorder, ...) are ignored — the explorer's decision
/// space already subsumes anything backfill can do.
ExploreResult exploreOptimal(const ClusterConfig& cfg, const Workload& workload,
                             const JobProfileTable& profiles, ExploreObjective objective,
                             const ExploreLimits& limits = {});

/// A replayed trace's schedule, recomputed independently of the search.
struct TraceReplay {
  double makespanSec = 0;
  double meanSlowdown = 0;
  std::vector<JobOutcome> jobs; ///< workload order; wait attributed PolicyHeld
};

/// Deterministically re-executes a decision trace on the Machine, in
/// O(D log D) for D decisions.  Replaying ExploreResult::trace reproduces
/// the search's objective bit-for-bit — the oracle's self-validation.
/// Throws support::Error on a trace the machine cannot follow (wrong
/// instant, infeasible allocation, negative free nodes).
TraceReplay replayTrace(const ClusterConfig& cfg, const Workload& workload,
                        const JobProfileTable& profiles,
                        const std::vector<ExploreDecision>& trace);

/// The decisions a finished simulateCluster run took, as a trace replayTrace
/// can re-execute: per job, a Start at its arrival tick plus its queue wait
/// (allocs[0]), then one Keep or Realloc per later phase (allocs[p]) at the
/// tick the previous phase ended, timed by the Machine's own phase
/// durations and migration delays.  replayTrace of this trace must
/// reproduce the run's schedule exactly; it throws if a decision misses an
/// instant or oversubscribes the machine.
std::vector<ExploreDecision> decisionTrace(const ClusterConfig& cfg, const Workload& workload,
                                           const JobProfileTable& profiles,
                                           const ClusterMetrics& metrics);

// ----------------------------------------------------------------- oracle --
/// One policy configuration the oracle scores.
struct OraclePolicy {
  std::string label;  ///< e.g. "fcfs-easy"
  std::string policy; ///< makePolicy name
  bool backfill = false;
};

/// The five shipped configurations: the four policies plus fcfs-rigid
/// under EASY backfill.
std::vector<OraclePolicy> oraclePolicies();

/// Every oracle configuration's plain run against the proven optima.
struct OracleComparison {
  std::vector<ClusterMetrics> runs; ///< one per oraclePolicies() entry, same order
  double bestMakespanSec = 0;       ///< best over runs: the makespan search's bound
  double bestMeanSlowdown = 0;      ///< best over runs: the slowdown search's bound
  ExploreResult makespan;           ///< optimal-makespan search
  ExploreResult slowdown;           ///< optimal-mean-slowdown search
  TraceReplay makespanReplay;       ///< replayTrace of makespan.trace
  TraceReplay slowdownReplay;       ///< replayTrace of slowdown.trace
};

/// Simulates every oracle configuration on `workload`, searches both
/// optima with the best policy's value as `upperBound` (replacing the one
/// in `limits`), and replays each optimum's decision trace.
OracleComparison compareWithOptimum(const ClusterConfig& cfg, const Workload& workload,
                                    const JobProfileTable& profiles,
                                    const ExploreLimits& limits = {});

// --------------------------------------------------------------- verifier --

/// The typed invariant taxonomy.  Space invariants are checked structurally
/// at every reachable instant by verifySpace; policy invariants need a
/// concrete run's flight record and are checked by verifyPolicy.
enum class Invariant : std::uint8_t {
  /// used + free == nodes at every instant; utilization never exceeds 1.
  NodeConservation = 0,
  /// Every running allocation is in its class's feasible set.
  FeasibleAllocation = 1,
  /// Growth is granted from free nodes only (never oversubscribes).
  GrowFromFree = 2,
  /// Shrink migration moves a non-negative byte count bounded by the live
  /// application state, and never discards completed phases.
  ShrinkPreservesColumns = 3,
  /// Per-reason wait buckets telescope exactly to start - arrival
  /// (integer nanoseconds, no tolerance).
  WaitTelescoping = 4,
  /// EASY backfill starts a younger job only when it cannot delay the
  /// blocked head's shadow-time reservation; non-backfilled jobs never
  /// overtake arrival order.
  BackfillNoHeadDelay = 5,
  /// No job waits longer than the starvation bound.
  NoStarvation = 6,
};
inline constexpr std::size_t kInvariantCount = 7;
const char* invariantName(Invariant inv);    ///< slug, e.g. "node-conservation"
const char* invariantSummary(Invariant inv); ///< one-line description

/// One failed check, with enough context to reproduce it.
struct InvariantViolation {
  Invariant invariant = Invariant::NodeConservation;
  std::int32_t job = -1; ///< -1 when not job-specific
  double tSec = 0;
  std::string detail;
  /// Space mode: the decision path that reached the violating state.
  std::vector<ExploreDecision> trace;
};

/// The verifier's verdict: per-invariant evaluation counts plus every
/// violation found (empty == all checks passed).
struct VerifyReport {
  std::array<std::uint64_t, kInvariantCount> checks{};
  std::vector<InvariantViolation> violations;
  ExploreStats stats; ///< space mode only; zeroed for policy audits
  bool pass() const { return violations.empty(); }
  std::uint64_t totalChecks() const;
};

/// Exhaustively checks the space invariants (NodeConservation,
/// FeasibleAllocation, GrowFromFree, ShrinkPreservesColumns,
/// WaitTelescoping) over every reachable instant of the joint decision
/// space.  No objective pruning — pruning could hide violating states.
VerifyReport verifySpace(const ClusterConfig& cfg, const Workload& workload,
                         const JobProfileTable& profiles, const ExploreLimits& limits = {});

/// verifyPolicy knobs.
struct PolicyVerifyOptions {
  ClusterConfig cluster; ///< recorder/metrics/trace fields are overridden
  /// NoStarvation bound in seconds; <= 0 derives one from the workload
  /// (derivedStarvationBound).
  double starvationBoundSec = 0;
};

/// One policy run's verdict: the audit report, the run's metrics, and,
/// when the audit fails, the flight record JSON — the counterexample
/// (re-running simulateCluster with a fresh recorder reproduces it
/// byte-for-byte; `explainText` carries the recorder's causal narrative
/// for the first violating job).  A passing run renders no record.
struct PolicyVerifyResult {
  VerifyReport report;
  ClusterMetrics metrics;
  std::string recordJson;
  std::string explainText;
};

/// Runs `policy` through simulateCluster with a flight recorder attached
/// and audits the full invariant set against the recorded decisions and
/// the finalized metrics.
PolicyVerifyResult verifyPolicy(const PolicyVerifyOptions& opts, const Workload& workload,
                                const JobProfileTable& profiles, Policy& policy);

/// The decision-level audit alone: checks an existing (metrics, record)
/// pair produced by simulateCluster.  Exposed so a counterexample replay
/// can re-audit independently of verifyPolicy.
VerifyReport auditRecord(const ClusterMetrics& metrics, const obs::Recorder& record,
                         const Workload& workload, const JobProfileTable& profiles,
                         double starvationBoundSec);

/// Workload-derived NoStarvation bound: generous for every shipped policy
/// on the explorer-scale workloads, violated by schedules that serialize
/// the queue (see HeadHoldMutant).
double derivedStarvationBound(const Workload& workload, const JobProfileTable& profiles);

/// Intentionally broken policy for counterexample demonstrations: admits
/// the queue head only into an idle machine (holds while anything runs),
/// which serializes every job — a head-delay/starvation bug by design.
/// Deadlock-free: the machine always drains, so the head eventually runs.
class HeadHoldMutant final : public Policy {
public:
  std::string name() const override { return "head-hold-mutant"; }
  std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                     const ClusterView& view, DecisionContext& ctx) override;
  std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                          const ClusterView& view, DecisionContext& ctx) override;
};

/// The tiny two-class mix the explorer-scale tools search over: a 3-phase
/// LU class malleable across {1, 2, 4} workers and a 3-sweep Jacobi class
/// malleable across {2, 4} strips — small enough that an engine-profiled
/// table plus an exhaustive optimality proof fit in a smoke test.
std::vector<JobClass> exploreMix(std::int32_t clusterNodes);

} // namespace dps::sched
