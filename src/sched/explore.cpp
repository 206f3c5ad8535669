#include "sched/explore.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/fingerprint.hpp"

namespace dps::sched {

namespace {

constexpr std::int64_t kNoEvent = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kMaxViolations = 8;
constexpr double kEps = 1e-9;

/// Matches toSeconds(SimDuration) for a raw nanosecond count.
double nsToSec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

enum class JobSt : std::uint8_t { Pending, Queued, Running, Migrating, Boundary, Finished };

/// One job's slot of the instant machine.  `phase` is the currently
/// executing phase while Running, and the *next* phase to run while
/// Migrating or at a Boundary; `nextNs` is the phase end (Running) or the
/// migration end (Migrating).
struct JobState {
  JobSt st = JobSt::Pending;
  std::int32_t alloc = 0;
  std::int32_t phase = 0;
  std::int64_t nextNs = 0;
  std::int64_t startNs = -1;
  std::int64_t finishNs = -1;
};

struct State {
  std::int64_t nowNs = 0;
  std::int32_t free = 0;
  std::vector<JobState> jobs;
};

/// Per-class integer-nanosecond tables, quantized exactly as the event loop
/// quantizes: phase durations through seconds(), so explorer finish times
/// land on the same ticks simulateCluster produces.
struct ClassTab {
  const ClassProfile* profile = nullptr;
  std::int32_t phases = 0;
  std::vector<std::vector<std::int64_t>> durNs; ///< [alloc level][phase]
  /// minRemainNs[p] = sum_{q >= p} min_level durNs[level][q] — the
  /// admissible remaining-time bound (migration delays ignored).
  std::vector<std::int64_t> minRemainNs;
  double bestSec = 0;
};

/// The deterministic instant machine the search and the replay share: the
/// cluster loop's semantics (admission, phase boundaries, shrink-frees-now,
/// migration delays) re-expressed as explicit state + decision application,
/// with event processing factored out of decision enumeration.
class Machine {
public:
  Machine(const ClusterConfig& cfg, const Workload& workload, const JobProfileTable& profiles)
      : cfg_(cfg), workload_(workload) {
    cfg.check(profiles);
    tabs_.reserve(profiles.classCount());
    for (std::size_t c = 0; c < profiles.classCount(); ++c) {
      const ClassProfile& cp = profiles.of(c);
      ClassTab t;
      t.profile = &cp;
      t.phases = cp.phases();
      t.bestSec = cp.bestSec();
      t.durNs.resize(cp.allocs.size());
      for (std::size_t lvl = 0; lvl < cp.allocs.size(); ++lvl) {
        t.durNs[lvl].reserve(static_cast<std::size_t>(t.phases));
        for (double sec : cp.byAlloc[lvl].phaseSec)
          t.durNs[lvl].push_back(seconds(sec).count());
      }
      t.minRemainNs.assign(static_cast<std::size_t>(t.phases) + 1, 0);
      for (std::int32_t p = t.phases - 1; p >= 0; --p) {
        std::int64_t best = kNoEvent;
        for (const auto& lvl : t.durNs) best = std::min(best, lvl[static_cast<std::size_t>(p)]);
        t.minRemainNs[static_cast<std::size_t>(p)] =
            t.minRemainNs[static_cast<std::size_t>(p) + 1] + best;
      }
      tabs_.push_back(std::move(t));
    }
    arrivalNs_.reserve(workload.jobs.size());
    for (const Job& j : workload.jobs) arrivalNs_.push_back(seconds(j.arrivalSec).count());
  }

  std::int32_t nodes() const { return cfg_.nodes; }
  std::size_t jobCount() const { return workload_.jobs.size(); }
  std::int64_t arrivalNs(std::size_t j) const { return arrivalNs_[j]; }
  double arrivalSec(std::size_t j) const { return workload_.jobs[j].arrivalSec; }
  const ClassTab& tab(std::size_t j) const { return tabs_[workload_.jobs[j].klass]; }

  State initial() const {
    State s;
    s.free = cfg_.nodes;
    s.jobs.resize(workload_.jobs.size());
    return s;
  }

  std::int64_t durNs(std::size_t j, std::int32_t phase, std::int32_t alloc) const {
    const ClassTab& t = tab(j);
    return t.durNs[level(t, alloc)][static_cast<std::size_t>(phase)];
  }

  std::int64_t migrationDelayNs(std::size_t j, std::int32_t phase, std::int32_t from,
                                std::int32_t to, double* bytesOut) const {
    const double bytes = tab(j).profile->migrationBytes(phase, from, to);
    if (bytesOut != nullptr) *bytesOut = bytes;
    return cfg_.migrationDelay(bytes).count();
  }

  /// The next instant anything happens on its own (arrival, migration end,
  /// phase end); kNoEvent when every unfinished job is held in the queue —
  /// a dead branch, since nothing will ever wake the machine again.
  std::int64_t nextEventNs(const State& s) const {
    std::int64_t t = kNoEvent;
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      const JobState& js = s.jobs[j];
      if (js.st == JobSt::Pending)
        t = std::min(t, arrivalNs_[j]);
      else if (js.st == JobSt::Running || js.st == JobSt::Migrating)
        t = std::min(t, js.nextNs);
    }
    return t;
  }

  /// Advances the clock to `t` and fires everything due: arrivals queue,
  /// migration ends begin their phase, phase ends finish the job or leave
  /// it at a Boundary awaiting a decision.
  void advance(State& s, std::int64_t t) const {
    s.nowNs = t;
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      JobState& js = s.jobs[j];
      switch (js.st) {
      case JobSt::Pending:
        if (arrivalNs_[j] <= t) js.st = JobSt::Queued;
        break;
      case JobSt::Migrating:
        if (js.nextNs == t) {
          js.st = JobSt::Running;
          js.nextNs = t + durNs(j, js.phase, js.alloc);
        }
        break;
      case JobSt::Running:
        if (js.nextNs == t) {
          ++js.phase;
          if (js.phase >= tab(j).phases) {
            s.free += js.alloc;
            js.alloc = 0;
            js.st = JobSt::Finished;
            js.finishNs = t;
          } else {
            js.st = JobSt::Boundary;
          }
        }
        break;
      default:
        break;
      }
    }
  }

  ExploreDecision applyStart(State& s, std::size_t j, std::int32_t alloc) const {
    JobState& js = s.jobs[j];
    js.st = JobSt::Running;
    js.alloc = alloc;
    js.phase = 0;
    js.startNs = s.nowNs;
    js.nextNs = s.nowNs + durNs(j, 0, alloc);
    s.free -= alloc;
    ExploreDecision d;
    d.timeNs = s.nowNs;
    d.job = static_cast<std::int32_t>(j);
    d.kind = ExploreDecision::Kind::Start;
    d.toNodes = alloc;
    return d;
  }

  /// Applies one boundary decision; shrink frees nodes immediately while
  /// grow debits them (free may go negative mid-cascade — the joint
  /// combination is only kept if the instant ends with free >= 0).
  ExploreDecision applyBoundary(State& s, std::size_t j, std::int32_t target,
                                double* bytesOut = nullptr,
                                std::int64_t* delayOut = nullptr) const {
    JobState& js = s.jobs[j];
    const std::int32_t from = js.alloc;
    ExploreDecision d;
    d.timeNs = s.nowNs;
    d.job = static_cast<std::int32_t>(j);
    d.fromNodes = from;
    d.toNodes = target;
    d.phase = js.phase;
    if (target == from) {
      js.st = JobSt::Running;
      js.nextNs = s.nowNs + durNs(j, js.phase, from);
      d.kind = ExploreDecision::Kind::Keep;
      if (bytesOut != nullptr) *bytesOut = 0;
      if (delayOut != nullptr) *delayOut = 0;
      return d;
    }
    const std::int64_t delay = migrationDelayNs(j, js.phase, from, target, bytesOut);
    if (delayOut != nullptr) *delayOut = delay;
    s.free += from - target;
    js.alloc = target;
    if (delay > 0) {
      js.st = JobSt::Migrating;
      js.nextNs = s.nowNs + delay;
    } else {
      js.st = JobSt::Running;
      js.nextNs = s.nowNs + durNs(j, js.phase, target);
    }
    d.kind = ExploreDecision::Kind::Realloc;
    return d;
  }

  bool allFinished(const State& s) const {
    return std::all_of(s.jobs.begin(), s.jobs.end(),
                       [](const JobState& js) { return js.st == JobSt::Finished; });
  }

  /// Admissible earliest-possible finish: ignores migration delays and lets
  /// every remaining phase run at its per-phase fastest allocation.
  std::int64_t earliestFinishNs(const State& s, std::size_t j) const {
    const JobState& js = s.jobs[j];
    const ClassTab& t = tab(j);
    switch (js.st) {
    case JobSt::Finished:
      return js.finishNs;
    case JobSt::Pending:
      return arrivalNs_[j] + t.minRemainNs[0];
    case JobSt::Queued:
      return std::max(s.nowNs, arrivalNs_[j]) + t.minRemainNs[0];
    case JobSt::Boundary:
      return s.nowNs + t.minRemainNs[static_cast<std::size_t>(js.phase)];
    case JobSt::Migrating:
      return js.nextNs + t.minRemainNs[static_cast<std::size_t>(js.phase)];
    case JobSt::Running:
      return js.nextNs + t.minRemainNs[static_cast<std::size_t>(js.phase) + 1];
    }
    return kNoEvent;
  }

  double makespanSec(const State& s) const {
    std::int64_t last = 0;
    for (const JobState& js : s.jobs) last = std::max(last, js.finishNs);
    return nsToSec(last);
  }

  double meanSlowdown(const State& s) const {
    double sum = 0;
    for (std::size_t j = 0; j < s.jobs.size(); ++j)
      sum += (nsToSec(s.jobs[j].finishNs) - arrivalSec(j)) / tab(j).bestSec;
    return sum / static_cast<double>(s.jobs.size());
  }

  double lowerBound(const State& s, ExploreObjective obj) const {
    if (obj == ExploreObjective::Makespan) {
      std::int64_t lb = 0;
      for (std::size_t j = 0; j < s.jobs.size(); ++j)
        lb = std::max(lb, earliestFinishNs(s, j));
      return nsToSec(lb);
    }
    double sum = 0;
    for (std::size_t j = 0; j < s.jobs.size(); ++j)
      sum += (nsToSec(earliestFinishNs(s, j)) - arrivalSec(j)) / tab(j).bestSec;
    return sum / static_cast<double>(s.jobs.size());
  }

  /// FNV-1a over the complete search-relevant state.  Two states with equal
  /// fingerprint fields have identical reachable futures *and* identical
  /// already-banked objective contributions, so collapsing them is sound
  /// for both objectives.
  std::uint64_t hash(const State& s) const {
    Fingerprint f;
    f.add(s.nowNs).add(s.free);
    for (const JobState& js : s.jobs) {
      f.add(static_cast<std::int64_t>(js.st))
          .add(js.alloc)
          .add(js.phase)
          .add(js.nextNs)
          .add(js.startNs)
          .add(js.finishNs);
    }
    return f.value();
  }

private:
  static std::size_t level(const ClassTab& t, std::int32_t alloc) {
    const auto& a = t.profile->allocs;
    const auto it = std::lower_bound(a.begin(), a.end(), alloc);
    DPS_CHECK(it != a.end() && *it == alloc,
              "allocation " + std::to_string(alloc) + " not feasible for " + t.profile->name);
    return static_cast<std::size_t>(it - a.begin());
  }

  const ClusterConfig& cfg_;
  const Workload& workload_;
  std::vector<ClassTab> tabs_;
  std::vector<std::int64_t> arrivalNs_;
};

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
  bool stop() const {
    if (!stats_.complete) return true;
    return mode_ == Mode::Verify && report_->violations.size() >= kMaxViolations;
  }

  /// Advances through bookkeeping instants until a decision opens (or the
  /// schedule completes / the branch dies), then forks the joint decision.
  void dfs(State s) {
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
  void branchBoundary(const State& s, const std::vector<std::size_t>& boundary, std::size_t k,
                      const std::vector<std::size_t>& queued) {
    if (stop()) return;
    if (k == boundary.size()) {
      if (s.free < 0) return; // joint grow oversubscribed: unreachable
      branchQueued(s, queued, 0);
      return;
    }
    const std::size_t j = boundary[k];
    for (const std::int32_t target : m_.tab(j).profile->allocs) {
      State child = s;
      path_.push_back(m_.applyBoundary(child, j, target));
      branchBoundary(child, boundary, k + 1, queued);
      path_.pop_back();
    }
  }

  /// Forks hold-or-start(alloc) for queued job k; starts debit the free
  /// nodes remaining after the boundary cascade and earlier starts.
  void branchQueued(const State& s, const std::vector<std::size_t>& queued, std::size_t k) {
    if (stop()) return;
    if (k == queued.size()) {
      instantDone(s);
      return;
    }
    const std::size_t j = queued[k];
    branchQueued(s, queued, k + 1); // hold
    for (const std::int32_t alloc : m_.tab(j).profile->allocs) {
      if (alloc > s.free) continue;
      State child = s;
      path_.push_back(m_.applyStart(child, j, alloc));
      branchQueued(child, queued, k + 1);
      path_.pop_back();
    }
  }

  /// The joint decision is fixed: check invariants, dedup, bound, recurse.
  /// Pruned states are NOT marked seen — a later revisit under a smaller
  /// incumbent prunes at least as much, so skipping the insert costs only
  /// a recomputation, never completeness.
  void instantDone(const State& s) {
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
      const double lb = m_.lowerBound(s, obj_);
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

  void complete(const State& s) {
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

  void checkInstant(const State& s) {
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
  out.jobs.resize(m.jobCount());
  for (std::size_t j = 0; j < m.jobCount(); ++j) {
    JobOutcome& o = out.jobs[j];
    o.id = workload.jobs[j].id;
    o.klass = m.tab(j).profile->name;
    o.arrivalSec = workload.jobs[j].arrivalSec;
    o.bestSec = m.tab(j).bestSec;
  }

  State s = m.initial();
  std::size_t consumed = 0;
  std::vector<JobSt> before(m.jobCount());
  while (!m.allFinished(s)) {
    const std::int64_t t = m.nextEventNs(s);
    DPS_CHECK(t != kNoEvent, "trace stalls: every unfinished job held with nothing pending");
    for (std::size_t j = 0; j < m.jobCount(); ++j) before[j] = s.jobs[j].st;
    m.advance(s, t);
    for (std::size_t j = 0; j < m.jobCount(); ++j) {
      // A migration that just completed begins its phase at this instant.
      if (before[j] == JobSt::Migrating && s.jobs[j].st == JobSt::Running)
        out.jobs[j].allocs.push_back(s.jobs[j].alloc);
      if (before[j] != JobSt::Finished && s.jobs[j].st == JobSt::Finished)
        out.jobs[j].finishSec = nsToSec(s.jobs[j].finishNs);
    }
    for (std::size_t j = 0; j < m.jobCount(); ++j) {
      if (s.jobs[j].st != JobSt::Boundary) continue;
      const auto it = byKey.find({t, static_cast<std::int32_t>(j)});
      DPS_CHECK(it != byKey.end(), "trace misses a boundary decision for job " +
                                       std::to_string(j) + " at t=" + std::to_string(t) + "ns");
      const ExploreDecision& d = it->second;
      DPS_CHECK(d.kind != ExploreDecision::Kind::Start && d.fromNodes == s.jobs[j].alloc,
                "trace boundary decision does not match machine state");
      double bytes = 0;
      std::int64_t delay = 0;
      m.applyBoundary(s, j, d.toNodes, &bytes, &delay);
      ++consumed;
      if (d.toNodes != d.fromNodes) {
        JobOutcome& o = out.jobs[j];
        ++o.reallocations;
        o.migratedBytes += bytes;
        o.wait.migrationDelayNs += delay;
        if (delay == 0) o.allocs.push_back(d.toNodes); // phase began immediately
      } else {
        out.jobs[j].allocs.push_back(d.toNodes);
      }
    }
    for (std::size_t j = 0; j < m.jobCount(); ++j) {
      if (s.jobs[j].st != JobSt::Queued) continue;
      const auto it = byKey.find({t, static_cast<std::int32_t>(j)});
      if (it == byKey.end()) continue; // held at this instant
      const ExploreDecision& d = it->second;
      DPS_CHECK(d.kind == ExploreDecision::Kind::Start,
                "trace has a non-start decision for a queued job");
      m.applyStart(s, j, d.toNodes);
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

  // Arrival order is the workload order; a later job starting strictly
  // earlier than an older one must carry the backfilled flag.
  for (std::size_t i = 0; i + 1 < metrics.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < metrics.jobs.size(); ++j) {
      bump(Invariant::BackfillNoHeadDelay);
      if (metrics.jobs[j].startSec < metrics.jobs[i].startSec - kEps &&
          !metrics.jobs[j].backfilled)
        fail(Invariant::BackfillNoHeadDelay, metrics.jobs[j].id, metrics.jobs[j].startSec,
             "job " + std::to_string(metrics.jobs[j].id) + " overtook job " +
                 std::to_string(metrics.jobs[i].id) + " without backfilling");
    }
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
  cfg.trace = nullptr;
  cfg.onProgress = {};
  cfg.progressEvery = 0;

  PolicyVerifyResult r;
  r.metrics = simulateCluster(cfg, workload, profiles, policy);
  const double bound = opts.starvationBoundSec > 0 ? opts.starvationBoundSec
                                                   : derivedStarvationBound(workload, profiles);
  r.report = auditRecord(r.metrics, rec, workload, profiles, bound);
  r.recordJson = rec.jsonString();
  if (!r.report.pass()) {
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
