// The one engine-run primitive behind every engine consumer.
//
// Profile builds, replay validation, the cluster server's what-if queries,
// the experiments layer's reference/prediction legs (exp::ScenarioRunner,
// the figure campaigns, autocal) and table1's reference rows all run through
// here; svc::ProfileCache needs those paths to produce *identical* work
// units so results can be memoized across them.  An EngineRunSpec is a
// complete, self-contained description of one single-threaded simulation
// (application config, allocation plan, engine configuration, kernel cost
// models); runEngine() is the only function in src/ that builds an engine,
// an application and a malleability controller from one and runs them, and
// executeEngineRun() derives the cacheable record from its result.
//
// A spec has two-part cache identity:
//   * engineFingerprint() — stable hash over the SimConfig and both kernel
//     cost models (the fields sched::ProfileSettings::fingerprint() hashes,
//     so settings-level and spec-level fingerprints coincide);
//   * cacheSpec() — a canonical string for everything else (app config,
//     plan, policy, start allocation, phase slicing).  Kept as a string so
//     key equality is exact rather than hash-collision-probable.
//
// Callers that want memoization inject an EngineRunFn (svc:: provides one
// backed by its ProfileCache); passing none means "execute directly".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "malleable/controller.hpp"
#include "malleable/plan.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"

namespace dps::obs {
class Registry;
} // namespace dps::obs

namespace dps::sched {

/// Complete description of one single-threaded engine run.
struct EngineRunSpec {
  AppKind app = AppKind::Lu;
  lu::LuConfig lu{};
  jacobi::JacobiConfig jacobi{};

  /// Allocation plan executed by the malleability controller; empty = a
  /// plain static run.  LU only — Jacobi has no controller.
  mall::AllocationPlan plan{};
  mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns;
  /// Workers active at t=0; 0 = the config's worker count.  When below it
  /// (a replayed job admitted under its maximum) column ownership is
  /// re-spread over the first startAlloc workers before the run, so the
  /// plan's iteration-0 removal deactivates the surplus without migration.
  std::int32_t startAlloc = 0;

  /// Slice the trace at the app's progress markers into phases (requires
  /// config.recordTrace).
  bool slicePhases = true;

  core::SimConfig config{};
  lu::KernelCostModel luModel{};
  jacobi::JacobiCostModel jacobiModel{};

  /// Stable hash over config + both cost models; equals
  /// ProfileSettings::fingerprint() when config == settings.simConfig().
  std::uint64_t engineFingerprint() const;
  /// Canonical string for the app/plan/slicing half of the cache identity.
  std::string cacheSpec() const;
  /// Both halves combined (convenience for tests and logs).
  std::uint64_t fingerprint() const;
};

/// One allocation-history event of a run (trace::AllocationRecord in
/// seconds), exposed so what-if consumers can locate shrink instants.
struct AllocEvent {
  double timeSec = 0;
  std::int32_t nodes = 0;
};

/// Everything any current consumer reads out of a run.
struct EngineRunRecord {
  double totalSec = 0; // simulated makespan

  // Phase slices (filled when spec.slicePhases).
  std::vector<double> phaseSec;
  std::vector<double> phaseEff;
  std::vector<std::int64_t> phaseMarker; // marker value ending each phase

  /// Controller's total migrated bytes (0 for plan-free runs).
  double migratedBytes = 0;
  /// Allocation-change events (empty without trace recording).
  std::vector<AllocEvent> allocEvents;
};

/// A finished run: the engine's own result plus the controller's migrated
/// bytes (0 for plan-free runs).
struct EngineRunResult {
  core::RunResult run;
  std::uint64_t migratedBytes = 0;
};

/// Builds the spec's application (and, with a plan, its malleability
/// controller) on a fresh engine and runs it.  Pure function of the spec:
/// bit-identical on every call, safe to run concurrently from pool workers.
/// With `metrics`, the run counts into `engine.runs`, its simulated makespan
/// into the integer `engine.sim_ns` counter (exact in any completion order),
/// and the controller's migration bytes by direction land under `mall.*`.
/// Observation never reaches simulation state.
EngineRunResult runEngine(const EngineRunSpec& spec, obs::Registry* metrics = nullptr);

/// runEngine() reduced to the record every profile consumer reads (and
/// svc::ProfileCache memoizes).
EngineRunRecord executeEngineRun(const EngineRunSpec& spec, obs::Registry* metrics = nullptr);

/// Injection point for memoization: callers hand profile/replay code a
/// runner (svc::cachedRunner) and identical specs simulate only once.
using EngineRunFn = std::function<EngineRunRecord(const EngineRunSpec&)>;

/// The spec a profile build runs for (class, allocation): a static PDEXEC
/// NOALLOC run sliced at the app's markers.  Replay and svc construct their
/// static runs through this same function, which is what lets them share
/// cache entries with profile builds.
EngineRunSpec profileRunSpec(const JobClass& klass, std::int32_t nodes,
                             const ProfileSettings& settings);

/// The spec of one LU what-if query: "release workers/2 nodes after
/// iteration q", where q = 0 is the static run, sliced into the
/// per-iteration efficiency curve an admission policy reads.  Every what-if
/// caller builds its specs here, so equal queries share one cache key.
EngineRunSpec whatIfSpec(const lu::LuConfig& cfg, std::int64_t q, const ProfileSettings& settings);

/// Converts a sliced run record into the profile-table phase form.
PhaseProfile phaseProfileFromRecord(const EngineRunRecord& rec, std::int32_t nodes);

/// The per-class profile skeleton (name, app, feasible allocations, state
/// model) with byAlloc sized but unfilled — shared by JobProfileTable and
/// the svc acquisition path.
ClassProfile classProfileSkeleton(const JobClass& klass, std::int32_t clusterNodes);

} // namespace dps::sched
