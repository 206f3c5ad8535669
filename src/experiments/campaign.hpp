// Experiment campaigns: declarative sweeps of (config x seed x plan)
// observations executed concurrently on a thread pool.
//
// Every figure/table reproduction is a campaign: a list of scenario points
// handed to ScenarioRunner.  Points are independent single-threaded
// simulations, so a campaign fans them out across cores and still returns a
// result set that is ordered by point index and bit-identical to a serial
// run — each engine is seeded from its point alone, and results land in
// pre-sized slots (no completion-order dependence).
//
// Grids expand in row-major order (n, r, workers, variant, plan/policy,
// fidelity seed innermost), mirroring the nested loops the benches used to
// hand-roll.  Aggregates (mean/stddev/min/max of measured, predicted and
// signed error) plus a JSON emitter make campaign outputs diffable
// across PRs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "malleable/controller.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace dps {
class JsonWriter;
} // namespace dps

namespace dps::exp {

/// One observation to make: a scenario configuration plus the "machine
/// state" seed of its reference run.
struct CampaignPoint {
  lu::LuConfig cfg;
  mall::AllocationPlan plan{};
  std::uint64_t fidelitySeed = 1;
  mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns;
  /// Optional display label; empty uses ScenarioRunner's default.
  std::string label;
};

/// Named combination of the LU flow-graph toggles.
struct VariantSpec {
  std::string name;
  bool pipelined = false;
  bool parallelMult = false;
  bool flowControl = false;
};

/// Declarative sweep: the cartesian product of the listed dimensions.
/// Empty dimensions inherit the single value from `base` (or the defaults).
struct SweepGrid {
  lu::LuConfig base;                        // seed, fcLimit, subBlock, ...
  std::vector<std::int32_t> n;              // matrix sizes
  std::vector<std::int32_t> r;              // block sizes
  std::vector<std::int32_t> workers;        // node counts
  std::vector<VariantSpec> variants;        // graph variants
  std::vector<mall::AllocationPlan> plans;  // allocation plans
  std::vector<mall::RemovalPolicy> policies;
  std::vector<std::uint64_t> fidelitySeeds; // reference-run machine states

  /// Expands to points in deterministic row-major order.
  std::vector<CampaignPoint> expand() const;
  std::size_t size() const;
};

/// Campaign-level aggregate statistics.
struct CampaignAggregate {
  OnlineStats measuredSec;
  OnlineStats predictedSec;
  OnlineStats error; // signed, paper Fig. 13 convention
};

struct CampaignResult {
  std::vector<CampaignPoint> points;
  std::vector<Observation> observations; // index-aligned with `points`
  unsigned jobs = 1;                     // concurrency the run used

  CampaignAggregate aggregate() const;

  /// Signed errors in point order (histogram / fractionWithin input).
  std::vector<double> errors() const;

  /// JSON object {"jobs":..,"observations":[..],"aggregate":{..}} at
  /// value position.
  void writeJson(JsonWriter& w) const;
  /// writeJson as a standalone document.
  std::string jsonString() const;
};

/// A set of campaign points executed against one ScenarioRunner.
class Campaign {
public:
  explicit Campaign(EngineSettings settings = {});

  /// Adds one point; returns its index (== observation index in results).
  std::size_t add(CampaignPoint point);
  std::size_t add(const lu::LuConfig& cfg, const mall::AllocationPlan& plan = {},
                  std::uint64_t fidelitySeed = 1,
                  mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns,
                  std::string label = {});
  /// Appends a whole grid; returns the index of its first point.
  std::size_t add(const SweepGrid& grid);

  std::size_t size() const { return points_.size(); }
  const std::vector<CampaignPoint>& points() const { return points_; }
  const ScenarioRunner& runner() const { return runner_; }

  /// Executes all points with up to `jobs` concurrent simulations
  /// (0 = hardware concurrency).  jobs == 1 runs serially on the caller;
  /// any jobs value produces bit-identical observations in point order.
  CampaignResult run(unsigned jobs = 0) const;
  /// Same, on an existing pool (pool workers + the calling thread).
  CampaignResult run(ThreadPool& pool) const;

private:
  CampaignResult prepare(unsigned jobs) const;
  Observation execute(std::size_t index) const;

  ScenarioRunner runner_;
  std::vector<CampaignPoint> points_;
};

} // namespace dps::exp
