// sched::Machine — the cluster's transition core, written once.
//
// A job's life on the simulated cluster as explicit integer-nanosecond
// state plus five per-job transitions: arrive, applyStart, endPhase (a
// finished job frees its nodes, otherwise it waits at a Boundary),
// applyBoundary (keep, or shrink/grow with the migration delay; a
// shrink's released nodes free now) and endMigration.  Each transition is
// O(1) apart from the alloc-level lookup, and sets the tick of the job's
// next event (`nextNs`).  Durations, arrivals and migration delays are
// quantized through seconds(), so every tick is the one a DES kernel
// would compute.
//
// Three drivers share it.  simulateCluster (cluster.cpp) fires each
// transition from its own DES event and posts the next one at the tick
// the transition set; the policy, backfill and observation live there.
// The explorer's depth-first search (explore.cpp) calls advance(), which
// fires everything due at one instant, and forks the decisions.
// replayTrace re-executes a decision trace with a (tick, job) heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/cluster.hpp"
#include "sched/metrics.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"
#include "support/error.hpp"

namespace dps::sched {

inline constexpr std::int64_t kNoEvent = std::numeric_limits<std::int64_t>::max();

/// Matches toSeconds(SimDuration) for a raw nanosecond count.
inline double nsToSec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One edge of a schedule: what a job did at one instant.  Holds are
/// implicit (a queued job with no Start decision at an instant waited), so
/// a trace lists exactly the actions that shape the schedule.
struct ExploreDecision {
  enum class Kind : std::uint8_t {
    Start,   ///< queued -> running at `toNodes`
    Keep,    ///< phase boundary, allocation kept at `toNodes`
    Realloc, ///< phase boundary, `fromNodes` -> `toNodes` (migration charged)
  };
  std::int64_t timeNs = 0;
  std::int32_t job = -1;
  Kind kind = Kind::Start;
  std::int32_t fromNodes = 0;
  std::int32_t toNodes = 0;
  /// 0-based phase the decision applies to (0 for Start).
  std::int32_t phase = 0;
};

enum class JobSt : std::uint8_t { Pending, Queued, Running, Migrating, Boundary, Finished };

/// One job's slot of the machine.  `phase` is the currently executing
/// phase while Running, and the *next* phase to run while Migrating or at
/// a Boundary; `nextNs` is the phase end (Running) or the migration end
/// (Migrating).
struct JobState {
  JobSt st = JobSt::Pending;
  std::int32_t alloc = 0;
  std::int32_t phase = 0;
  std::int64_t nextNs = 0;
  std::int64_t startNs = -1;
  std::int64_t finishNs = -1;
};

/// The whole cluster at one instant.  The job counts are derived from
/// `jobs` (kept by the transitions), so Machine::hash leaves them out.
struct MachineState {
  std::int64_t nowNs = 0;
  std::int32_t free = 0;
  std::vector<JobState> jobs;
  std::int32_t queued = 0;
  std::int32_t running = 0; ///< started, not finished
  std::size_t finished = 0;
};

/// Per-class integer-nanosecond tables.
struct ClassTab {
  const ClassProfile* profile = nullptr;
  std::int32_t phases = 0;
  std::vector<std::vector<std::int64_t>> durNs; ///< [alloc level][phase]
  /// minRemainNs[p] = sum_{q >= p} min_level durNs[level][q] — the
  /// admissible remaining-time bound (migration delays ignored).
  std::vector<std::int64_t> minRemainNs;
  double bestSec = 0;
};

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

  MachineState initial() const {
    MachineState s;
    s.free = cfg_.nodes;
    s.jobs.resize(workload_.jobs.size());
    return s;
  }

  /// Job j's outcome before it runs: id, class, arrival and best time.
  JobOutcome outcome(std::size_t j) const {
    JobOutcome o;
    o.id = workload_.jobs[j].id;
    o.klass = tab(j).profile->name;
    o.arrivalSec = workload_.jobs[j].arrivalSec;
    o.bestSec = tab(j).bestSec;
    return o;
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

  // ----------------------------------------------------------- transitions --

  void arrive(MachineState& s, std::size_t j) const {
    s.jobs[j].st = JobSt::Queued;
    ++s.queued;
  }

  ExploreDecision applyStart(MachineState& s, std::size_t j, std::int32_t alloc) const {
    JobState& js = s.jobs[j];
    js.st = JobSt::Running;
    js.alloc = alloc;
    js.phase = 0;
    js.startNs = s.nowNs;
    js.nextNs = s.nowNs + durNs(j, 0, alloc);
    s.free -= alloc;
    --s.queued;
    ++s.running;
    ExploreDecision d;
    d.timeNs = s.nowNs;
    d.job = static_cast<std::int32_t>(j);
    d.kind = ExploreDecision::Kind::Start;
    d.toNodes = alloc;
    return d;
  }

  /// Ends the running phase of job j; true when that was its last phase
  /// (its nodes are free again), else the job waits at a Boundary.
  bool endPhase(MachineState& s, std::size_t j) const {
    JobState& js = s.jobs[j];
    ++js.phase;
    if (js.phase < tab(j).phases) {
      js.st = JobSt::Boundary;
      return false;
    }
    s.free += js.alloc;
    js.alloc = 0;
    js.st = JobSt::Finished;
    js.finishNs = s.nowNs;
    --s.running;
    ++s.finished;
    return true;
  }

  /// Applies one boundary decision; shrink frees nodes immediately while
  /// grow debits them (free may go negative mid-cascade — the explorer
  /// keeps a joint combination only if the instant ends with free >= 0).
  ExploreDecision applyBoundary(MachineState& s, std::size_t j, std::int32_t target,
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

  /// A migration ended: job j begins its next phase at its new allocation.
  void endMigration(MachineState& s, std::size_t j) const {
    JobState& js = s.jobs[j];
    js.st = JobSt::Running;
    js.nextNs = s.nowNs + durNs(j, js.phase, js.alloc);
  }

  // ------------------------------------------------------------- instants --

  /// The next instant anything happens on its own (arrival, migration end,
  /// phase end); kNoEvent when every unfinished job is held in the queue —
  /// a dead branch, since nothing will ever wake the machine again.
  std::int64_t nextEventNs(const MachineState& s) const {
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

  /// Advances the clock to `t` and fires every transition due then.
  void advance(MachineState& s, std::int64_t t) const {
    s.nowNs = t;
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      const JobState& js = s.jobs[j];
      if (js.st == JobSt::Pending && arrivalNs_[j] <= t)
        arrive(s, j);
      else if (js.st == JobSt::Migrating && js.nextNs == t)
        endMigration(s, j);
      else if (js.st == JobSt::Running && js.nextNs == t)
        endPhase(s, j);
    }
  }

  bool allFinished(const MachineState& s) const { return s.finished == s.jobs.size(); }

  double makespanSec(const MachineState& s) const {
    std::int64_t last = 0;
    for (const JobState& js : s.jobs) last = std::max(last, js.finishNs);
    return nsToSec(last);
  }

  double meanSlowdown(const MachineState& s) const {
    double sum = 0;
    for (std::size_t j = 0; j < s.jobs.size(); ++j)
      sum += (nsToSec(s.jobs[j].finishNs) - arrivalSec(j)) / tab(j).bestSec;
    return sum / static_cast<double>(s.jobs.size());
  }

  /// The complete search-relevant state, mixed one 64-bit word at a time
  /// by a 64x64->128-bit multiply folded hi ^ lo (wyhash's "mum"): nowNs,
  /// free, then per job st, alloc and phase packed into one word, nextNs,
  /// startNs and finishNs.  The 32-bit fields go through uint32_t, so a -1
  /// cannot sign-extend over a neighbouring field.  Two states with equal
  /// fields have identical reachable futures *and* identical already-banked
  /// objective contributions, so collapsing them is sound for both
  /// objectives.
  std::uint64_t hash(const MachineState& s) const {
    std::uint64_t h = mix(kHashSeed, static_cast<std::uint64_t>(s.nowNs));
    h = mix(h, static_cast<std::uint32_t>(s.free));
    for (const JobState& js : s.jobs) {
      h = mix(h, static_cast<std::uint64_t>(js.st));
      h = mix(h, pack(js.alloc, js.phase));
      h = mix(h, static_cast<std::uint64_t>(js.nextNs));
      h = mix(h, static_cast<std::uint64_t>(js.startNs));
      h = mix(h, static_cast<std::uint64_t>(js.finishNs));
    }
    return h;
  }

private:
  /// wyhash's secrets: odd, with dense, well-spread bits.
  static constexpr std::uint64_t kHashSeed = 0xa0761d6478bd642full;
  static constexpr std::uint64_t kHashMul = 0xe7037ed1a0b428dbull;

  static std::uint64_t pack(std::int32_t lo, std::int32_t hi) {
    return static_cast<std::uint32_t>(lo) | std::uint64_t{static_cast<std::uint32_t>(hi)} << 32;
  }

  static std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
    const unsigned __int128 p = static_cast<unsigned __int128>(h ^ word) * kHashMul;
    return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
  }

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

} // namespace dps::sched
