// Automated calibration search (paper §4: platform parameters "must be
// measured or estimated separately for each target parallel machine").
//
// exp::calibratePlatform performs a single two-point ping-pong fit of l and
// b.  This subsystem instead frames calibration as *parallel optimization*
// (CGSim / McDonald-&-Suter style): a bounded ParamSpace over the
// predictor's platform profile and kernel-cost scale, an ObjectiveSpec of
// validation scenarios scored by mean |signed error| of predicted vs
// reference runs, and pluggable search strategies (grid, seeded random,
// coordinate-descent refinement) driven by a budgeted search loop.
//
// Candidate evaluations fan out over the campaign thread pool: each
// (candidate, scenario) prediction is an independent single-threaded
// simulation (one sched::executeEngineRun on the scenario's spec) whose
// result lands in an index-addressed slot, so a search is bit-identical at
// any --jobs — the same determinism contract as exp::Campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "jacobi/app.hpp"
#include "sched/engine_run.hpp"
#include "support/rng.hpp"

namespace dps {
class JsonWriter;
} // namespace dps

namespace dps::exp {

// ---------------------------------------------------------------------------
// Candidate + ParamSpace

/// One point of the calibration search: a full predictor platform profile
/// plus a scale factor on the kernel cost model's throughputs.  kernelScale
/// is stored explicitly (not folded into the model) so encode() can read it
/// back — apply/encode round-trip exactly.
struct Candidate {
  net::PlatformProfile profile;
  /// Multiplier on every modeled kernel throughput (LU KernelCostModel and
  /// the Jacobi cost model alike); >1 = faster compute than the base model.
  double kernelScale = 1.0;
};

/// The tunable knobs a ParamSpace dimension can address.  Durations are
/// encoded in seconds.
enum class Param : std::uint8_t {
  LatencySec,             // profile.latency
  BandwidthBytesPerSec,   // profile.bandwidthBytesPerSec
  PerStepOverheadSec,     // profile.perStepOverhead
  LocalDeliverySec,       // profile.localDelivery
  CpuPerOutgoingTransfer, // profile.cpuPerOutgoingTransfer
  CpuPerIncomingTransfer, // profile.cpuPerIncomingTransfer
  ComputeScale,           // profile.computeScale
  KernelScale,            // Candidate::kernelScale
};

const char* paramName(Param p);
double getParam(const Candidate& c, Param p);
void setParam(Candidate& c, Param p, double v);

/// One named, bounded search dimension.
struct ParamDim {
  Param key{};
  double lo = 0;
  double hi = 0;
  double width() const { return hi - lo; }
};

/// An ordered list of bounded dimensions; candidate encodings are vectors
/// of dimension values in this order.
class ParamSpace {
public:
  /// Adds a dimension (lo < hi required); returns *this for chaining.
  ParamSpace& add(Param key, double lo, double hi);

  std::size_t size() const { return dims_.size(); }
  const std::vector<ParamDim>& dims() const { return dims_; }

  /// Reads the dimension values out of a candidate.
  std::vector<double> encode(const Candidate& c) const;
  /// Returns `base` with the dimension values overwritten from `x`
  /// (non-dimension fields keep their base values).  Inverse of encode():
  /// encode(apply(base, x)) == x up to duration quantization (1 ns).
  Candidate apply(Candidate base, const std::vector<double>& x) const;
  /// Clamps each coordinate into its dimension's [lo, hi] box.
  std::vector<double> clamp(std::vector<double> x) const;
  /// Midpoint of the box.
  std::vector<double> center() const;

  /// The default search box around a warm-start candidate: latency and
  /// bandwidth within [1/4, 4]x of the warm start, per-step overhead up to
  /// 4x, kernel scale within [1/2, 2]x.  With `includeFidelityDims` the box
  /// additionally searches the dimensions the fidelity layer perturbs —
  /// local delivery (per-message overhead), the per-transfer CPU costs and
  /// the compute-speed scale (bandwidth derating shows up as effective
  /// latency/bandwidth, these as the residual per-message/CPU error) — the
  /// ROADMAP's "search the fidelity-layer dimensions themselves".
  static ParamSpace around(const Candidate& warmStart, bool includeFidelityDims = false);

private:
  std::vector<ParamDim> dims_;
};

// ---------------------------------------------------------------------------
// Objective

/// One validation scenario: the application half of an engine run (app,
/// its config, allocation plan and removal policy) plus the fidelity seed
/// ("machine state") of its reference run.  Each leg copies `run` and fills
/// in its own engine configuration and cost models.
struct ValidationScenario {
  std::string label;
  sched::EngineRunSpec run;
  std::uint64_t fidelitySeed = 1;

  static ValidationScenario luCase(
      const lu::LuConfig& cfg, std::uint64_t fidelitySeed, const mall::AllocationPlan& plan = {},
      mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns);
  static ValidationScenario jacobiCase(const jacobi::JacobiConfig& cfg,
                                       std::uint64_t fidelitySeed);
};

/// The validation set a search is scored against, plus the scoring rule.
struct ObjectiveSpec {
  std::vector<ValidationScenario> scenarios;

  /// Mean |signed error| — the number the search minimizes.
  static double score(const std::vector<double>& signedErrors);

  /// Cross-app default set: LU at several matrix/block sizes, one dynamic
  /// allocation plan, and a Jacobi stencil case.  Sized so a full budgeted
  /// search stays CI-friendly.
  static ObjectiveSpec validationSet();
};

/// Abstract candidate scorer: encoding -> per-scenario signed errors.
/// scenarioError must be const + thread-safe (it is called concurrently
/// from pool workers).
class Objective {
public:
  virtual ~Objective() = default;
  virtual std::size_t scenarioCount() const = 0;
  virtual std::string scenarioLabel(std::size_t scenario) const = 0;
  /// Signed prediction error (paper Fig. 13 convention) of the candidate
  /// encoded by `x` on one scenario.
  virtual double scenarioError(const std::vector<double>& x, std::size_t scenario) const = 0;
};

/// Simulator-backed objective: reference runs (ScenarioRunner's
/// referenceConfig, per-scenario machine-state seed) are executed once up
/// front — fanned out on the thread pool — then each candidate evaluation
/// runs only the prediction leg per scenario (ScenarioRunner's
/// predictorConfig with the candidate's profile and scaled cost models).
/// Both legs are sched::executeEngineRun calls on the scenario's spec,
/// without trace recording.
class ScenarioObjective final : public Objective {
public:
  /// `reference` describes the machine being calibrated against (profile +
  /// cost model + fidelity config); `base` is the candidate whose fields
  /// non-searched dimensions inherit.  Reference runs execute in the
  /// constructor with up to `jobs` concurrent simulations (0 = hardware).
  ScenarioObjective(EngineSettings reference, Candidate base, ParamSpace space,
                    ObjectiveSpec spec, unsigned jobs = 1);

  std::size_t scenarioCount() const override { return scenarios_.size(); }
  std::string scenarioLabel(std::size_t scenario) const override;
  double scenarioError(const std::vector<double>& x, std::size_t scenario) const override;

  double referenceSec(std::size_t scenario) const { return referenceSec_[scenario]; }
  const Candidate& base() const { return base_; }
  const ParamSpace& space() const { return space_; }

private:
  double predictSec(const Candidate& c, const ValidationScenario& s) const;
  double measureReferenceSec(const ValidationScenario& s) const;

  ScenarioRunner reference_;
  Candidate base_;
  ParamSpace space_;
  std::vector<ValidationScenario> scenarios_;
  std::vector<double> referenceSec_;
  jacobi::JacobiCostModel jacobiModel_{};
};

// ---------------------------------------------------------------------------
// Search strategies

/// One scored evaluation.
struct EvalRecord {
  std::size_t index = 0;      // evaluation order, 0-based
  std::string strategy;       // which strategy proposed it
  std::vector<double> x;      // candidate encoding
  std::vector<double> errors; // per-scenario signed errors
  double score = 0;           // ObjectiveSpec::score(errors)
};

/// Evaluation trace + incumbent tracking (earliest record wins score ties,
/// so the incumbent is independent of evaluation concurrency).
struct SearchHistory {
  std::vector<EvalRecord> records;
  std::size_t bestIndex = 0;

  bool empty() const { return records.empty(); }
  const EvalRecord& best() const { return records[bestIndex]; }
  void append(EvalRecord rec);
};

/// A search strategy proposes candidate batches; the driver evaluates them
/// and appends the results to the shared history before asking again.
/// Strategies must be deterministic functions of their construction
/// arguments (including any seed) and the history — never of wall clock,
/// thread timing or evaluation order within a batch.
class SearchStrategy {
public:
  virtual ~SearchStrategy() = default;
  virtual std::string name() const = 0;
  /// Returns at most `maxCandidates` encodings to evaluate next; empty
  /// means the strategy is finished.
  virtual std::vector<std::vector<double>> propose(const ParamSpace& space,
                                                   const SearchHistory& history,
                                                   std::size_t maxCandidates) = 0;
};

/// Full-factorial sweep: the largest per-dimension level count whose
/// product fits the point budget, expanded row-major (last dim innermost).
class GridSearch final : public SearchStrategy {
public:
  explicit GridSearch(std::size_t points);
  std::string name() const override { return "grid"; }
  std::vector<std::vector<double>> propose(const ParamSpace& space,
                                           const SearchHistory& history,
                                           std::size_t maxCandidates) override;

private:
  std::size_t points_;
  bool emitted_ = false;
};

/// Uniform seeded sampling of the box; draws happen on the caller thread in
/// a fixed order, so the proposal sequence depends only on the seed.
class RandomSearch final : public SearchStrategy {
public:
  RandomSearch(std::size_t points, std::uint64_t seed);
  std::string name() const override { return "random"; }
  std::vector<std::vector<double>> propose(const ParamSpace& space,
                                           const SearchHistory& history,
                                           std::size_t maxCandidates) override;

private:
  std::size_t remaining_;
  Rng rng_;
};

/// Local refinement from the incumbent: probes +-step (as a fraction of each
/// dimension's width) along one dimension at a time, moves on improvement,
/// and halves the step after a full pass without one.
class CoordinateDescent final : public SearchStrategy {
public:
  explicit CoordinateDescent(double initialStep = 0.25, double minStep = 1e-3);
  std::string name() const override { return "coordinate-descent"; }
  std::vector<std::vector<double>> propose(const ParamSpace& space,
                                           const SearchHistory& history,
                                           std::size_t maxCandidates) override;

private:
  void absorbPending(const SearchHistory& history);
  void advanceDim(std::size_t dimCount);

  double step_;
  double minStep_;
  bool initialized_ = false;
  bool done_ = false;
  std::vector<double> center_;
  double centerScore_ = 0;
  std::size_t dim_ = 0;
  bool improvedThisPass_ = false;
  std::size_t pendingFirst_ = 0; // record index of the pending batch
  std::size_t pendingCount_ = 0;
};

// ---------------------------------------------------------------------------
// Driver

struct SearchOptions {
  /// Total objective evaluations, warm start included.
  std::size_t budget = 64;
  /// Concurrent (candidate, scenario) simulations; 0 = hardware
  /// concurrency.  Results are bit-identical at any value.
  unsigned jobs = 0;
  /// Optional encoding evaluated first (clamped into the box) — typically
  /// the calibratePlatform two-point fit.  Because it enters the history,
  /// the returned best can never score worse than the warm start.
  std::vector<double> warmStart;
};

struct AutocalResult {
  SearchHistory history;
  unsigned jobs = 1;
  bool hasWarmStart = false;

  const EvalRecord& best() const { return history.best(); }
  /// The warm start is always evaluation 0 when present.
  const EvalRecord& warmStart() const { return history.records.front(); }
  /// Record indices sorted by ascending score (ties by evaluation order).
  std::vector<std::size_t> ranking() const;
};

/// Runs the strategies in order against one objective until the budget is
/// exhausted or every strategy has finished.  Deterministic for fixed
/// (objective, space, strategies, options) at any `jobs`.
AutocalResult runCalibrationSearch(const Objective& objective, const ParamSpace& space,
                                   const std::vector<std::shared_ptr<SearchStrategy>>& strategies,
                                   const SearchOptions& options);

/// JSON report at value position: jobs/evaluation counts, scenario labels,
/// warm start, best fit (dimension values + the applied profile), and the
/// full ranked evaluation trace.
void writeReportJson(JsonWriter& w, const AutocalResult& result, const Objective& objective,
                     const ParamSpace& space, const Candidate& base);

} // namespace dps::exp
