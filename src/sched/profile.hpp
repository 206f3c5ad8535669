// Job phase profiles: the bridge between the per-application DPS engine and
// the cluster event loop.
//
// For every (job class, allocation) pair the cluster scheduler needs a
// *phase profile*: per-phase durations and dynamic efficiencies, obtained by
// slicing a PDEXEC NOALLOC simulation at the application's progress markers
// (LU "iteration", Jacobi "sweep").  The cluster scheduler then models a
// running job as a sequence of phases whose durations come from the profile
// at the job's current allocation, and may re-decide the allocation at every
// phase boundary (the only points where the malleable applications can
// reconfigure).  Allocation changes charge a migration delay derived from
// the bytes of application state that move — the same accounting
// mall::LuMalleabilityController injects in-engine.
//
// Running one full engine simulation per (class x allocation) point is the
// scaling wall: a class that is malleable across 64 allocation levels costs
// 64 simulations to profile exhaustively.  InterpolatedProfile removes it:
// only a small set of *anchor* allocations (min, max, and a few log-spaced
// interior points) run on the engine, and the profiles for every other
// feasible allocation are synthesized by per-phase log-log interpolation
// between the bracketing anchors.  Anchors reproduce their engine profiles
// bit-for-bit; ProfileBuildOptions::interpolate = false (the tools'
// --exact-profiles) restores the exhaustive build unchanged.
//
// Profile construction fans the independent simulations out on the
// support::ThreadPool with the campaign layer's determinism contract:
// results land in index-addressed slots, so the table is bit-identical at
// any --jobs value.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "net/profile.hpp"
#include "sched/workload.hpp"

namespace dps::sched {

/// Engine settings the profile simulations run with.
struct ProfileSettings {
  net::PlatformProfile platform = net::ultraSparc440();
  lu::KernelCostModel luModel = lu::KernelCostModel::ultraSparc440();
  jacobi::JacobiCostModel jacobiModel{};

  /// The engine configuration every profile run uses: PDEXEC NOALLOC on
  /// this platform.  sched::replay runs with the identical configuration so
  /// prediction and replay differ only by what the cluster loop abstracts.
  core::SimConfig simConfig() const {
    core::SimConfig sc;
    sc.profile = platform;
    sc.mode = core::ExecutionMode::Pdexec;
    sc.allocatePayloads = false;
    return sc;
  }

  /// Stable structural hash over the full engine configuration these
  /// settings induce (platform, mode knobs, fidelity, both kernel cost
  /// models).  Any field change changes the value, so two divergent
  /// settings can never alias one svc::ProfileCache entry.
  std::uint64_t fingerprint() const;
};

/// One class's behaviour at one allocation.
struct PhaseProfile {
  std::int32_t nodes = 0;
  std::vector<double> phaseSec; // per-phase durations, sum == totalSec
  std::vector<double> phaseEff; // profiled dynamic efficiency per phase
  double totalSec = 0;          // simulated makespan at this allocation
  /// remainSec[i] == phaseSec[i] + phaseSec[i+1] + ... — the event loop's
  /// remaining-runtime query in O(1).  Each entry is the plain left-to-right
  /// accumulation from i, so it is bitwise identical to summing the tail on
  /// the spot.  Filled by
  /// finalizeRemaining(); remainingFrom() falls back to the direct sum when
  /// a hand-built profile never called it.
  std::vector<double> remainSec;

  void finalizeRemaining();
  double remainingFrom(std::int32_t phase) const;
};

/// One class's profiles across its feasible allocations.
struct ClassProfile {
  std::string name;
  AppKind app = AppKind::Lu;
  std::vector<std::int32_t> allocs; // ascending feasible allocations
  std::vector<PhaseProfile> byAlloc;
  /// Total bytes of distributed application state (LU: the n x n matrix;
  /// Jacobi: the grid) — the unit of the migration-cost model.
  double stateBytes = 0;
  /// True when completed phases retire their state from future migrations
  /// (LU columns already factored stay put; the Jacobi grid stays live).
  bool stateShrinks = false;

  std::int32_t phases() const;
  std::int32_t maxNodes() const { return allocs.back(); }
  std::int32_t minNodes() const { return allocs.front(); }
  /// O(log levels) lookups: `allocs` is ascending by contract.
  const PhaseProfile& at(std::int32_t nodes) const;
  bool feasible(std::int32_t nodes) const;
  /// Largest feasible allocation <= want; the smallest one when none is.
  std::int32_t clampFeasible(std::int32_t want) const;
  /// Shortest achievable runtime across allocations (slowdown denominator).
  double bestSec() const;
  /// Bytes that move when reallocating from -> to before phase `phase`,
  /// mirroring the in-engine controller's per-direction accounting: shrink
  /// moves every column the removed workers own (full panels, factored or
  /// not); grow moves only still-unfactored columns, a ceil-share per
  /// re-added worker.  sched::replay validates this model against the
  /// controller's actual shrink/grow byte counters.
  double migrationBytes(std::int32_t phase, std::int32_t from, std::int32_t to) const;
};

/// Per-phase duration and efficiency curves fitted from engine profiles at
/// a few anchor allocations, able to synthesize a PhaseProfile for any
/// allocation in between.  Durations interpolate linearly in
/// (log nodes, log seconds) between the bracketing anchors — exact at the
/// anchors, a piecewise power law in between, which is the shape parallel
/// phase runtimes follow until efficiency rolls off (and enough anchors
/// track the roll-off).  Efficiencies interpolate linearly in log nodes.
class InterpolatedProfile {
public:
  /// `count` anchors out of `allocs` (ascending): always the endpoints,
  /// interior points log-spaced in allocation value, snapped to distinct
  /// feasible levels.  count >= allocs.size() returns every level.
  static std::vector<std::int32_t> pickAnchors(const std::vector<std::int32_t>& allocs,
                                               std::int32_t count);
  /// The default anchor budget for a class with `levels` feasible
  /// allocations: every level while profiling stays cheap (<= 5), else
  /// levels/4 clamped into [3, 8] — at least a 4x engine-run reduction once
  /// classes are 12+ levels malleable.
  static std::int32_t autoAnchorCount(std::size_t levels);

  /// Fits the curves from a ClassProfile holding *exact* engine profiles at
  /// its (anchor) allocations.
  static InterpolatedProfile fit(ClassProfile anchored);

  const std::vector<std::int32_t>& anchors() const { return anchored_.allocs; }

  /// Synthesizes the profile at `nodes` (clamped into the anchor range).
  /// An anchor allocation returns its stored engine profile bit-for-bit.
  PhaseProfile at(std::int32_t nodes) const;

  /// Fills `skeleton.byAlloc` (one entry per skeleton.allocs) from the
  /// fitted curves.
  ClassProfile synthesize(ClassProfile skeleton) const;

private:
  ClassProfile anchored_;
};

struct EngineRunSpec;
struct EngineRunRecord;

/// How JobProfileTable::build turns (class x allocation) points into
/// profiles.
struct ProfileBuildOptions {
  /// Profile only anchor allocations on the engine and synthesize the rest
  /// (classes with <= autoAnchorCount-exact levels still run exhaustively,
  /// so small tables are bit-identical either way).  false = today's
  /// exhaustive build, one engine run per allocation (--exact-profiles).
  bool interpolate = true;
  /// Anchor budget per class; 0 = autoAnchorCount.  Clamped to [2, levels].
  std::int32_t anchors = 0;
  /// Invoked after each completed engine run with (done, planned) — from
  /// pool threads, so the callback must be thread-safe.  Drives --progress.
  std::function<void(std::size_t, std::size_t)> onRunDone{};
};

/// Profiles for every class of a workload mix.
class JobProfileTable {
public:
  /// Runs the (class x anchor allocation) profile simulations with up to
  /// `jobs` concurrent engines (0 = hardware concurrency) and synthesizes
  /// the remaining allocations per `options`.  Bit-identical at any jobs
  /// value.  A non-null `runner` executes the per-point engine runs
  /// (svc::cachedRunner memoizes them); null runs them directly.
  static JobProfileTable build(
      const std::vector<JobClass>& classes, std::int32_t clusterNodes,
      const ProfileSettings& settings = {}, unsigned jobs = 1,
      const std::function<EngineRunRecord(const EngineRunSpec&)>& runner = {},
      const ProfileBuildOptions& options = {});

  /// Wraps hand-built profiles into a table without running the engine —
  /// for tests and the explorer's hand-computable oracle workloads, where
  /// the phase durations must be chosen, not profiled.  Every ClassProfile
  /// must already satisfy the table invariants (ascending `allocs`, one
  /// PhaseProfile per allocation, equal phase counts across allocations).
  static JobProfileTable fromProfiles(std::vector<ClassProfile> classes);

  std::size_t classCount() const { return classes_.size(); }
  const ClassProfile& of(std::size_t klass) const { return classes_.at(klass); }

  /// What the build cost versus what it produced.
  struct BuildInfo {
    std::size_t engineRunPoints = 0; // (class x allocation) points simulated
    std::size_t profiledAllocs = 0;  // profile entries produced (incl. synthesized)
    /// profiledAllocs / engineRunPoints — the engine-run reduction an
    /// exhaustive build of the same table would have paid.
    double runReduction() const {
      return engineRunPoints == 0
                 ? 1.0
                 : static_cast<double>(profiledAllocs) / static_cast<double>(engineRunPoints);
    }
  };
  const BuildInfo& buildInfo() const { return info_; }

private:
  std::vector<ClassProfile> classes_;
  BuildInfo info_;
};

} // namespace dps::sched
