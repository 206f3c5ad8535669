#include "sched/explore.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <unordered_set>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace dps::sched {

namespace {

constexpr std::size_t kMaxViolations = 8;
constexpr double kEps = 1e-9;

/// The depth-first search driver.  Oracle mode runs branch-and-bound for
/// the optimal schedule; Verify mode disables pruning (it could hide
/// violating states) and checks the structural invariants at every instant.
class Explorer {
public:
  enum class Mode : std::uint8_t { Oracle, Verify };

  Explorer(const Machine& m, Mode mode, ExploreObjective obj, const ExploreLimits& limits,
           VerifyReport* report)
      : m_(m), mode_(mode), obj_(obj), limits_(limits), report_(report) {
    if (mode_ == Mode::Verify) limits_.prune = false;
  }

  void run() { dfs(m_.initial()); }

  const ExploreStats& stats() const { return stats_; }
  bool found() const { return found_; }
  double best() const { return best_; }
  double bestMakespan() const { return bestMakespan_; }
  double bestSlowdown() const { return bestSlowdown_; }
  const std::vector<ExploreDecision>& bestTrace() const { return bestTrace_; }

private:
  /// Admissible earliest-possible finish: ignores migration delays and lets
  /// every remaining phase run at its per-phase fastest allocation.
  std::int64_t earliestFinishNs(const MachineState& s, std::size_t j) const {
    const JobState& js = s.jobs[j];
    const ClassTab& t = m_.tab(j);
    switch (js.st) {
    case JobSt::Finished:
      return js.finishNs;
    case JobSt::Pending:
      return m_.arrivalNs(j) + t.minRemainNs[0];
    case JobSt::Queued:
      return std::max(s.nowNs, m_.arrivalNs(j)) + t.minRemainNs[0];
    case JobSt::Boundary:
      return s.nowNs + t.minRemainNs[static_cast<std::size_t>(js.phase)];
    case JobSt::Migrating:
      return js.nextNs + t.minRemainNs[static_cast<std::size_t>(js.phase)];
    case JobSt::Running:
      return js.nextNs + t.minRemainNs[static_cast<std::size_t>(js.phase) + 1];
    }
    return kNoEvent;
  }

  double lowerBound(const MachineState& s) const {
    if (obj_ == ExploreObjective::Makespan) {
      std::int64_t lb = 0;
      for (std::size_t j = 0; j < s.jobs.size(); ++j)
        lb = std::max(lb, earliestFinishNs(s, j));
      return nsToSec(lb);
    }
    double sum = 0;
    for (std::size_t j = 0; j < s.jobs.size(); ++j)
      sum += (nsToSec(earliestFinishNs(s, j)) - m_.arrivalSec(j)) / m_.tab(j).bestSec;
    return sum / static_cast<double>(s.jobs.size());
  }

  bool stop() const {
    if (!stats_.complete) return true;
    return mode_ == Mode::Verify && report_->violations.size() >= kMaxViolations;
  }

  /// Advances through bookkeeping instants until a decision opens (or the
  /// schedule completes / the branch dies), then forks the joint decision.
  void dfs(MachineState s) {
    if (stop()) return;
    std::vector<std::size_t> boundary;
    std::vector<std::size_t> queued;
    for (;;) {
      if (m_.allFinished(s)) {
        complete(s);
        return;
      }
      const std::int64_t t = m_.nextEventNs(s);
      if (t == kNoEvent) return; // all held, nothing pending: dead branch
      m_.advance(s, t);
      boundary.clear();
      queued.clear();
      for (std::size_t j = 0; j < s.jobs.size(); ++j) {
        if (s.jobs[j].st == JobSt::Boundary)
          boundary.push_back(j);
        else if (s.jobs[j].st == JobSt::Queued)
          queued.push_back(j);
      }
      if (!boundary.empty() || !queued.empty()) break;
    }
    branchBoundary(s, boundary, 0, queued);
  }

  /// Forks every feasible target for boundary job k, then k+1, ...; the
  /// combination survives only if the instant ends with free >= 0.
  void branchBoundary(const MachineState& s, const std::vector<std::size_t>& boundary,
                      std::size_t k, const std::vector<std::size_t>& queued) {
    if (stop()) return;
    if (k == boundary.size()) {
      if (s.free < 0) return; // joint grow oversubscribed: unreachable
      branchQueued(s, queued, 0);
      return;
    }
    const std::size_t j = boundary[k];
    for (const std::int32_t target : m_.tab(j).profile->allocs) {
      MachineState child = s;
      path_.push_back(m_.applyBoundary(child, j, target));
      branchBoundary(child, boundary, k + 1, queued);
      path_.pop_back();
    }
  }

  /// Forks hold-or-start(alloc) for queued job k; starts debit the free
  /// nodes remaining after the boundary cascade and earlier starts.
  void branchQueued(const MachineState& s, const std::vector<std::size_t>& queued, std::size_t k) {
    if (stop()) return;
    if (k == queued.size()) {
      instantDone(s);
      return;
    }
    const std::size_t j = queued[k];
    branchQueued(s, queued, k + 1); // hold
    for (const std::int32_t alloc : m_.tab(j).profile->allocs) {
      if (alloc > s.free) continue;
      MachineState child = s;
      path_.push_back(m_.applyStart(child, j, alloc));
      branchQueued(child, queued, k + 1);
      path_.pop_back();
    }
  }

  /// The joint decision is fixed: check invariants, dedup, bound, recurse.
  /// Pruned states are NOT marked seen — a later revisit under a smaller
  /// incumbent prunes at least as much, so skipping the insert costs only
  /// a recomputation, never completeness.
  void instantDone(const MachineState& s) {
    if (mode_ == Mode::Verify) checkInstant(s);
    std::uint64_t h = 0;
    if (limits_.dedup) {
      h = m_.hash(s);
      if (seen_.contains(h)) {
        ++stats_.statesDeduped;
        return;
      }
    }
    if (limits_.prune) {
      const double lb = lowerBound(s);
      if ((found_ && lb >= best_) ||
          (limits_.upperBound > 0 && lb > limits_.upperBound + kEps)) {
        ++stats_.branchesPruned;
        return;
      }
    }
    if (stats_.statesExplored >= limits_.maxStates) {
      stats_.complete = false;
      return;
    }
    ++stats_.statesExplored;
    if (limits_.dedup) seen_.insert(h);
    dfs(s);
  }

  void complete(const MachineState& s) {
    ++stats_.schedulesSeen;
    if (mode_ == Mode::Verify) return;
    const double mk = m_.makespanSec(s);
    const double sl = m_.meanSlowdown(s);
    const double obj = obj_ == ExploreObjective::Makespan ? mk : sl;
    if (!found_ || obj < best_) {
      found_ = true;
      best_ = obj;
      bestMakespan_ = mk;
      bestSlowdown_ = sl;
      bestTrace_ = path_;
    }
  }

  // ------------------------------------------------------ space invariants --

  void violation(Invariant inv, std::int32_t job, double tSec, std::string detail) {
    if (report_->violations.size() >= kMaxViolations) return;
    InvariantViolation v;
    v.invariant = inv;
    v.job = job;
    v.tSec = tSec;
    v.detail = std::move(detail);
    v.trace = path_;
    report_->violations.push_back(std::move(v));
  }

  void checkInstant(const MachineState& s) {
    VerifyReport& rep = *report_;
    const double now = nsToSec(s.nowNs);

    ++rep.checks[static_cast<std::size_t>(Invariant::NodeConservation)];
    std::int32_t used = 0;
    for (const JobState& js : s.jobs)
      if (js.st == JobSt::Running || js.st == JobSt::Migrating) used += js.alloc;
    if (used + s.free != m_.nodes() || s.free < 0)
      violation(Invariant::NodeConservation, -1, now,
                "used " + std::to_string(used) + " + free " + std::to_string(s.free) +
                    " != nodes " + std::to_string(m_.nodes()));

    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      const JobState& js = s.jobs[j];
      if (js.st != JobSt::Running && js.st != JobSt::Migrating) continue;
      ++rep.checks[static_cast<std::size_t>(Invariant::FeasibleAllocation)];
      if (!m_.tab(j).profile->feasible(js.alloc))
        violation(Invariant::FeasibleAllocation, static_cast<std::int32_t>(j), now,
                  "allocation " + std::to_string(js.alloc) + " infeasible for class " +
                      m_.tab(j).profile->name);
    }

    for (const ExploreDecision& d : path_) {
      if (d.timeNs != s.nowNs) continue;
      const std::size_t j = static_cast<std::size_t>(d.job);
      if (d.kind == ExploreDecision::Kind::Start) {
        ++rep.checks[static_cast<std::size_t>(Invariant::WaitTelescoping)];
        if (d.timeNs < m_.arrivalNs(j))
          violation(Invariant::WaitTelescoping, d.job, now, "started before arrival");
      } else if (d.kind == ExploreDecision::Kind::Realloc) {
        if (d.toNodes > d.fromNodes) {
          ++rep.checks[static_cast<std::size_t>(Invariant::GrowFromFree)];
          if (s.free < 0)
            violation(Invariant::GrowFromFree, d.job, now, "grow oversubscribed the cluster");
        } else {
          ++rep.checks[static_cast<std::size_t>(Invariant::ShrinkPreservesColumns)];
          const ClassProfile& cp = *m_.tab(j).profile;
          const double bytes = cp.migrationBytes(d.phase, d.fromNodes, d.toNodes);
          if (bytes < -kEps || bytes > cp.stateBytes * (1 + kEps))
            violation(Invariant::ShrinkPreservesColumns, d.job, now,
                      "shrink moved " + std::to_string(bytes) + " bytes of " +
                          std::to_string(cp.stateBytes) + " state bytes");
        }
      }
    }
  }

  const Machine& m_;
  Mode mode_;
  ExploreObjective obj_;
  ExploreLimits limits_;
  VerifyReport* report_;

  ExploreStats stats_;
  bool found_ = false;
  double best_ = 0;
  double bestMakespan_ = 0;
  double bestSlowdown_ = 0;
  std::vector<ExploreDecision> bestTrace_;
  std::vector<ExploreDecision> path_;
  std::unordered_set<std::uint64_t> seen_;
};

} // namespace

const char* exploreObjectiveName(ExploreObjective o) {
  switch (o) {
  case ExploreObjective::Makespan:
    return "makespan";
  case ExploreObjective::MeanSlowdown:
    return "mean_slowdown";
  }
  return "?";
}

const char* exploreDecisionKindName(ExploreDecision::Kind k) {
  switch (k) {
  case ExploreDecision::Kind::Start:
    return "start";
  case ExploreDecision::Kind::Keep:
    return "keep";
  case ExploreDecision::Kind::Realloc:
    return "realloc";
  }
  return "?";
}

const char* invariantName(Invariant inv) {
  switch (inv) {
  case Invariant::NodeConservation:
    return "node-conservation";
  case Invariant::FeasibleAllocation:
    return "feasible-allocation";
  case Invariant::GrowFromFree:
    return "grow-from-free";
  case Invariant::ShrinkPreservesColumns:
    return "shrink-preserves-columns";
  case Invariant::WaitTelescoping:
    return "wait-telescoping";
  case Invariant::BackfillNoHeadDelay:
    return "backfill-no-head-delay";
  case Invariant::NoStarvation:
    return "no-starvation";
  }
  return "?";
}

const char* invariantSummary(Invariant inv) {
  switch (inv) {
  case Invariant::NodeConservation:
    return "used + free == nodes at every instant; utilization <= 1";
  case Invariant::FeasibleAllocation:
    return "every running allocation is in its class's feasible set";
  case Invariant::GrowFromFree:
    return "growth is granted from free nodes only";
  case Invariant::ShrinkPreservesColumns:
    return "shrink moves a bounded, non-negative slice of live state";
  case Invariant::WaitTelescoping:
    return "wait buckets telescope exactly to start - arrival (integer ns)";
  case Invariant::BackfillNoHeadDelay:
    return "backfill never delays the blocked head's reservation";
  case Invariant::NoStarvation:
    return "no job waits beyond the starvation bound";
  }
  return "?";
}

std::uint64_t VerifyReport::totalChecks() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : checks) total += c;
  return total;
}

ExploreResult exploreOptimal(const ClusterConfig& cfg, const Workload& workload,
                             const JobProfileTable& profiles, ExploreObjective objective,
                             const ExploreLimits& limits) {
  const Machine m(cfg, workload, profiles);
  Explorer ex(m, Explorer::Mode::Oracle, objective, limits, nullptr);
  ex.run();
  ExploreResult r;
  r.objective = objective;
  r.found = ex.found();
  r.bestObjective = ex.best();
  r.makespanSec = ex.bestMakespan();
  r.meanSlowdown = ex.bestSlowdown();
  r.trace = ex.bestTrace();
  r.stats = ex.stats();
  return r;
}

VerifyReport verifySpace(const ClusterConfig& cfg, const Workload& workload,
                         const JobProfileTable& profiles, const ExploreLimits& limits) {
  const Machine m(cfg, workload, profiles);
  VerifyReport rep;
  Explorer ex(m, Explorer::Mode::Verify, ExploreObjective::Makespan, limits, &rep);
  ex.run();
  rep.stats = ex.stats();
  return rep;
}

TraceReplay replayTrace(const ClusterConfig& cfg, const Workload& workload,
                        const JobProfileTable& profiles,
                        const std::vector<ExploreDecision>& trace) {
  const Machine m(cfg, workload, profiles);
  std::map<std::pair<std::int64_t, std::int32_t>, ExploreDecision> byKey;
  for (const ExploreDecision& d : trace)
    DPS_CHECK(byKey.emplace(std::make_pair(d.timeNs, d.job), d).second,
              "trace has two decisions for one (instant, job)");

  TraceReplay out;
  out.jobs.reserve(m.jobCount());
  for (std::size_t j = 0; j < m.jobCount(); ++j) out.jobs.push_back(m.outcome(j));

  // Each job has at most one pending event: its arrival, phase end or
  // migration end, keyed (tick, job) so an instant fires in job order.
  using Event = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::size_t j = 0; j < m.jobCount(); ++j) events.emplace(m.arrivalNs(j), j);
  MachineState s = m.initial();
  std::size_t consumed = 0;
  std::vector<std::size_t> boundary;
  while (!m.allFinished(s)) {
    DPS_CHECK(!events.empty(), "trace stalls: every unfinished job held with nothing pending");
    const std::int64_t t = s.nowNs = events.top().first;
    boundary.clear();
    for (; !events.empty() && events.top().first == t; events.pop()) {
      const std::size_t j = events.top().second;
      switch (s.jobs[j].st) {
      case JobSt::Pending:
        m.arrive(s, j);
        break;
      case JobSt::Migrating: // the phase after the migration begins now
        m.endMigration(s, j);
        out.jobs[j].allocs.push_back(s.jobs[j].alloc);
        events.emplace(s.jobs[j].nextNs, j);
        break;
      default:
        if (m.endPhase(s, j))
          out.jobs[j].finishSec = nsToSec(t);
        else
          boundary.push_back(j);
      }
    }
    for (const std::size_t j : boundary) {
      const auto it = byKey.find({t, static_cast<std::int32_t>(j)});
      DPS_CHECK(it != byKey.end(), "trace misses a boundary decision for job " +
                                       std::to_string(j) + " at t=" + std::to_string(t) + "ns");
      const ExploreDecision& d = it->second;
      DPS_CHECK(d.kind != ExploreDecision::Kind::Start && d.fromNodes == s.jobs[j].alloc,
                "trace boundary decision does not match machine state");
      double bytes = 0;
      std::int64_t delay = 0;
      m.applyBoundary(s, j, d.toNodes, &bytes, &delay);
      events.emplace(s.jobs[j].nextNs, j);
      ++consumed;
      JobOutcome& o = out.jobs[j];
      if (d.toNodes != d.fromNodes) {
        ++o.reallocations;
        o.migratedBytes += bytes;
        o.wait.migrationDelayNs += delay;
      }
      if (s.jobs[j].st == JobSt::Running) o.allocs.push_back(d.toNodes); // phase began now
    }
    // Starts: the trace's decisions at this instant for queued jobs.
    for (auto it = byKey.lower_bound({t, std::numeric_limits<std::int32_t>::min()});
         it != byKey.end() && it->first.first == t; ++it) {
      const auto j = static_cast<std::size_t>(it->first.second);
      if (j >= m.jobCount() || s.jobs[j].st != JobSt::Queued) continue;
      const ExploreDecision& d = it->second;
      DPS_CHECK(d.kind == ExploreDecision::Kind::Start,
                "trace has a non-start decision for a queued job");
      m.applyStart(s, j, d.toNodes);
      events.emplace(s.jobs[j].nextNs, j);
      ++consumed;
      JobOutcome& o = out.jobs[j];
      o.startSec = nsToSec(t);
      o.allocs.push_back(d.toNodes);
      const std::int64_t waited = t - m.arrivalNs(j);
      o.wait.totalNs = waited;
      o.wait.byReason[static_cast<std::size_t>(obs::WaitReason::PolicyHeld)] = waited;
    }
    DPS_CHECK(s.free >= 0, "trace oversubscribes the cluster");
  }
  DPS_CHECK(consumed == trace.size(), "trace has decisions the machine never reached");

  out.makespanSec = m.makespanSec(s);
  out.meanSlowdown = m.meanSlowdown(s);
  return out;
}

std::vector<ExploreDecision> decisionTrace(const ClusterConfig& cfg, const Workload& workload,
                                           const JobProfileTable& profiles,
                                           const ClusterMetrics& metrics) {
  const Machine m(cfg, workload, profiles);
  DPS_CHECK(metrics.jobs.size() == m.jobCount(), "decision trace needs this workload's metrics");
  std::vector<ExploreDecision> trace;
  for (std::size_t j = 0; j < m.jobCount(); ++j) {
    const JobOutcome& o = metrics.jobs[j];
    DPS_CHECK(o.allocs.size() == static_cast<std::size_t>(m.tab(j).phases),
              "job " + std::to_string(o.id) + " ran a phase count its class does not have");
    ExploreDecision d;
    d.timeNs = m.arrivalNs(j) + o.wait.totalNs;
    d.job = static_cast<std::int32_t>(j);
    d.toNodes = o.allocs[0];
    trace.push_back(d);
    // Walk the phase boundaries: each phase starts when the previous one
    // ends plus, after a reallocation, the migration delay.
    std::int64_t phaseStartNs = d.timeNs;
    for (std::int32_t p = 1; p < m.tab(j).phases; ++p) {
      const std::int32_t from = o.allocs[static_cast<std::size_t>(p) - 1];
      d.timeNs = phaseStartNs + m.durNs(j, p - 1, from);
      d.fromNodes = from;
      d.toNodes = o.allocs[static_cast<std::size_t>(p)];
      d.phase = p;
      d.kind = d.toNodes == from ? ExploreDecision::Kind::Keep : ExploreDecision::Kind::Realloc;
      trace.push_back(d);
      phaseStartNs = d.timeNs;
      if (d.toNodes != from) phaseStartNs += m.migrationDelayNs(j, p, from, d.toNodes, nullptr);
    }
  }
  return trace;
}

// ----------------------------------------------------------------- oracle --

std::vector<OraclePolicy> oraclePolicies() {
  return {
      {"fcfs-rigid", "fcfs-rigid", false},
      {"fcfs-easy", "fcfs-rigid", true},
      {"equipartition", "equipartition", false},
      {"efficiency-shrink", "efficiency-shrink", false},
      {"grow-eager", "grow-eager", false},
  };
}

OracleComparison compareWithOptimum(const ClusterConfig& cfg, const Workload& workload,
                                    const JobProfileTable& profiles,
                                    const ExploreLimits& limits) {
  OracleComparison out;
  for (const OraclePolicy& pc : oraclePolicies()) {
    auto policy = makePolicy(pc.policy);
    ClusterConfig cc = cfg;
    cc.easyBackfill = pc.backfill;
    out.runs.push_back(simulateCluster(cc, workload, profiles, *policy));
  }
  out.bestMakespanSec = out.runs.front().makespanSec;
  out.bestMeanSlowdown = out.runs.front().meanSlowdown;
  for (const ClusterMetrics& m : out.runs) {
    out.bestMakespanSec = std::min(out.bestMakespanSec, m.makespanSec);
    out.bestMeanSlowdown = std::min(out.bestMeanSlowdown, m.meanSlowdown);
  }

  ExploreLimits bounded = limits;
  bounded.upperBound = out.bestMakespanSec;
  out.makespan = exploreOptimal(cfg, workload, profiles, ExploreObjective::Makespan, bounded);
  bounded.upperBound = out.bestMeanSlowdown;
  out.slowdown = exploreOptimal(cfg, workload, profiles, ExploreObjective::MeanSlowdown, bounded);
  out.makespanReplay = replayTrace(cfg, workload, profiles, out.makespan.trace);
  out.slowdownReplay = replayTrace(cfg, workload, profiles, out.slowdown.trace);
  return out;
}

// ------------------------------------------------------------ policy audit --

double derivedStarvationBound(const Workload& workload, const JobProfileTable& profiles) {
  // The reference misbehavior is full serialization: each job runs alone
  // at its best allocation, in arrival order.  That chain's waits are
  // exactly computable from the workload (start_k = max(finish_{k-1},
  // arrival_k)), and a serializing scheduler realizes essentially all of
  // the worst one.  A working policy on the explorer-scale machines
  // always co-schedules at least two jobs — every explore-mix class fits
  // in at most half the cluster — so its worst wait stays near half the
  // serialized figure.  Eight tenths splits the regimes with margin on
  // both sides.
  double finishPrev = 0;
  double worstWait = 0;
  for (const Job& j : workload.jobs) {
    const double start = std::max(finishPrev, j.arrivalSec);
    worstWait = std::max(worstWait, start - j.arrivalSec);
    finishPrev = start + profiles.of(j.klass).bestSec();
  }
  return 0.8 * worstWait;
}

VerifyReport auditRecord(const ClusterMetrics& metrics, const obs::Recorder& record,
                         const Workload& workload, const JobProfileTable& profiles,
                         double starvationBoundSec) {
  VerifyReport rep;
  const auto fail = [&rep](Invariant inv, std::int32_t job, double tSec, std::string detail) {
    if (rep.violations.size() >= kMaxViolations) return;
    InvariantViolation v;
    v.invariant = inv;
    v.job = job;
    v.tSec = tSec;
    v.detail = std::move(detail);
    rep.violations.push_back(std::move(v));
  };
  const auto bump = [&rep](Invariant inv) { ++rep.checks[static_cast<std::size_t>(inv)]; };

  DPS_CHECK(metrics.jobs.size() == workload.jobs.size(),
            "audit needs the metrics of exactly this workload");

  for (std::size_t i = 0; i < metrics.jobs.size(); ++i) {
    const JobOutcome& out = metrics.jobs[i];
    DPS_CHECK(out.id == workload.jobs[i].id, "metrics jobs not in workload order");
    const ClassProfile& cp = profiles.of(workload.jobs[i].klass);

    // Exact integer telescoping, then the ns total against the float span.
    bump(Invariant::WaitTelescoping);
    if (out.wait.sumNs() != out.wait.totalNs)
      fail(Invariant::WaitTelescoping, out.id, out.startSec,
           "wait buckets sum to " + std::to_string(out.wait.sumNs()) + "ns, total is " +
               std::to_string(out.wait.totalNs) + "ns");
    else if (std::abs(nsToSec(out.wait.totalNs) - (out.startSec - out.arrivalSec)) > 2e-9)
      fail(Invariant::WaitTelescoping, out.id, out.startSec,
           "wait total disagrees with start - arrival");

    for (const std::int32_t a : out.allocs) {
      bump(Invariant::FeasibleAllocation);
      if (!cp.feasible(a))
        fail(Invariant::FeasibleAllocation, out.id, out.startSec,
             "phase ran at infeasible allocation " + std::to_string(a));
    }

    bump(Invariant::NoStarvation);
    if (out.waitSec() > starvationBoundSec + kEps)
      fail(Invariant::NoStarvation, out.id, out.startSec,
           "waited " + std::to_string(out.waitSec()) + "s, bound " +
               std::to_string(starvationBoundSec) + "s");
  }

  // Arrival order is the workload order; a job starting strictly earlier
  // than any older one (here: the older one that started last) must carry
  // the backfilled flag.
  for (std::size_t j = 1, last = 0; j < metrics.jobs.size(); ++j) {
    const JobOutcome& o = metrics.jobs[j];
    bump(Invariant::BackfillNoHeadDelay);
    if (o.startSec < metrics.jobs[last].startSec - kEps && !o.backfilled)
      fail(Invariant::BackfillNoHeadDelay, o.id, o.startSec,
           "job " + std::to_string(o.id) + " overtook job " +
               std::to_string(metrics.jobs[last].id) + " without backfilling");
    if (o.startSec > metrics.jobs[last].startSec) last = j;
  }

  for (const UtilizationPoint& p : metrics.timeline) {
    bump(Invariant::NodeConservation);
    if (p.usedNodes < 0 || p.usedNodes > metrics.nodes)
      fail(Invariant::NodeConservation, -1, p.timeSec,
           "timeline uses " + std::to_string(p.usedNodes) + " of " +
               std::to_string(metrics.nodes) + " nodes");
  }
  bump(Invariant::NodeConservation);
  if (metrics.utilization > 1 + kEps)
    fail(Invariant::NodeConservation, -1, metrics.makespanSec,
         "utilization " + std::to_string(metrics.utilization) + " exceeds 1");

  // Decision-log checks: realloc grants and backfill candidate verdicts.
  std::vector<const obs::Recorder::Decision*> candidates;
  for (const obs::Recorder::Decision& d : record.decisions()) {
    switch (d.kind) {
    case obs::Recorder::Kind::Realloc: {
      const ClassProfile& cp = profiles.of(workload.jobs[static_cast<std::size_t>(d.job)].klass);
      if (d.toNodes > d.fromNodes) {
        bump(Invariant::GrowFromFree);
        if (d.toNodes - d.fromNodes > d.freeNodes)
          fail(Invariant::GrowFromFree, d.job, d.tSec,
               "grow " + std::to_string(d.fromNodes) + "->" + std::to_string(d.toNodes) +
                   " with only " + std::to_string(d.freeNodes) + " free");
      } else {
        bump(Invariant::ShrinkPreservesColumns);
        if (d.bytes < -kEps || d.bytes > cp.stateBytes * (1 + kEps))
          fail(Invariant::ShrinkPreservesColumns, d.job, d.tSec,
               "shrink moved " + std::to_string(d.bytes) + " of " +
                   std::to_string(cp.stateBytes) + " state bytes");
      }
      break;
    }
    case obs::Recorder::Kind::Candidate:
      candidates.push_back(&d);
      break;
    case obs::Recorder::Kind::Pass: {
      for (const obs::Recorder::Decision* c : candidates) {
        if (!c->started) continue;
        bump(Invariant::BackfillNoHeadDelay);
        const ClassProfile& cp =
            profiles.of(workload.jobs[static_cast<std::size_t>(c->job)].klass);
        const bool finishesInTime =
            d.shadowSec >= 0 && c->tSec + cp.at(c->alloc).totalSec <= d.shadowSec + kEps;
        if (!finishesInTime && c->alloc > c->spare)
          fail(Invariant::BackfillNoHeadDelay, c->job, c->tSec,
               "backfilled " + std::to_string(c->alloc) + " nodes past the shadow time with " +
                   std::to_string(c->spare) + " spare");
      }
      candidates.clear();
      break;
    }
    default:
      break;
    }
  }
  return rep;
}

PolicyVerifyResult verifyPolicy(const PolicyVerifyOptions& opts, const Workload& workload,
                                const JobProfileTable& profiles, Policy& policy) {
  obs::Recorder rec;
  ClusterConfig cfg = opts.cluster;
  cfg.recorder = &rec;
  cfg.metrics = nullptr;
  cfg.onProgress = {};
  cfg.progressEvery = 0;

  PolicyVerifyResult r;
  r.metrics = simulateCluster(cfg, workload, profiles, policy);
  const double bound = opts.starvationBoundSec > 0 ? opts.starvationBoundSec
                                                   : derivedStarvationBound(workload, profiles);
  r.report = auditRecord(r.metrics, rec, workload, profiles, bound);
  if (!r.report.pass()) {
    r.recordJson = rec.jsonString();
    const std::int32_t job = r.report.violations.front().job;
    if (job >= 0) r.explainText = rec.explain(job);
  }
  return r;
}

std::int32_t HeadHoldMutant::admit(const QueuedJobView& job, const ClassProfile& profile,
                                   const ClusterView& view, DecisionContext& ctx) {
  (void)job;
  if (view.runningJobs > 0) {
    ctx.rule = "head-hold";
    ctx.score = view.runningJobs;
    return 0; // hold while anything runs: serializes the whole queue
  }
  ctx.rule = "idle-admit";
  return profile.maxNodes();
}

std::int32_t HeadHoldMutant::reallocate(const RunningJobView& job, const ClassProfile& profile,
                                        const ClusterView& view, DecisionContext& ctx) {
  (void)profile;
  (void)view;
  ctx.rule = "keep";
  return job.nodes;
}

std::vector<JobClass> exploreMix(std::int32_t clusterNodes) {
  DPS_CHECK(clusterNodes >= 4, "explore mix needs a cluster of at least four nodes");
  std::vector<JobClass> classes;
  {
    JobClass k;
    k.name = "lu-probe";
    k.app = AppKind::Lu;
    k.lu.n = 648;
    k.lu.r = 216; // 3 phases
    k.lu.seed = 20060425;
    k.lu.workers = 4; // allocs {1, 2, 4}
    k.weight = 1.0;
    classes.push_back(k);
  }
  {
    JobClass k;
    k.name = "jacobi-probe";
    k.app = AppKind::Jacobi;
    k.jacobi.rows = 4096;
    k.jacobi.cols = 8192;
    k.jacobi.sweeps = 3; // 3 phases
    k.jacobi.seed = 11;
    k.jacobi.workers = 4; // allocs {2, 4}
    k.weight = 1.0;
    classes.push_back(k);
  }
  return classes;
}

} // namespace dps::sched
