#include "experiments/autocal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "experiments/campaign.hpp"
#include "sched/engine_run.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "svc/profile_cache.hpp"

namespace dps::exp {

// ---------------------------------------------------------------------------
// Candidate + ParamSpace

const char* paramName(Param p) {
  switch (p) {
    case Param::LatencySec: return "latency_sec";
    case Param::BandwidthBytesPerSec: return "bandwidth_bytes_per_sec";
    case Param::PerStepOverheadSec: return "per_step_overhead_sec";
    case Param::LocalDeliverySec: return "local_delivery_sec";
    case Param::CpuPerOutgoingTransfer: return "cpu_per_outgoing_transfer";
    case Param::CpuPerIncomingTransfer: return "cpu_per_incoming_transfer";
    case Param::ComputeScale: return "compute_scale";
    case Param::KernelScale: return "kernel_scale";
  }
  return "unknown";
}

double getParam(const Candidate& c, Param p) {
  switch (p) {
    case Param::LatencySec: return toSeconds(c.profile.latency);
    case Param::BandwidthBytesPerSec: return c.profile.bandwidthBytesPerSec;
    case Param::PerStepOverheadSec: return toSeconds(c.profile.perStepOverhead);
    case Param::LocalDeliverySec: return toSeconds(c.profile.localDelivery);
    case Param::CpuPerOutgoingTransfer: return c.profile.cpuPerOutgoingTransfer;
    case Param::CpuPerIncomingTransfer: return c.profile.cpuPerIncomingTransfer;
    case Param::ComputeScale: return c.profile.computeScale;
    case Param::KernelScale: return c.kernelScale;
  }
  return 0;
}

void setParam(Candidate& c, Param p, double v) {
  switch (p) {
    case Param::LatencySec: c.profile.latency = seconds(v); return;
    case Param::BandwidthBytesPerSec: c.profile.bandwidthBytesPerSec = v; return;
    case Param::PerStepOverheadSec: c.profile.perStepOverhead = seconds(v); return;
    case Param::LocalDeliverySec: c.profile.localDelivery = seconds(v); return;
    case Param::CpuPerOutgoingTransfer: c.profile.cpuPerOutgoingTransfer = v; return;
    case Param::CpuPerIncomingTransfer: c.profile.cpuPerIncomingTransfer = v; return;
    case Param::ComputeScale: c.profile.computeScale = v; return;
    case Param::KernelScale: c.kernelScale = v; return;
  }
}

ParamSpace& ParamSpace::add(Param key, double lo, double hi) {
  DPS_CHECK(lo < hi, std::string("degenerate bounds for ") + paramName(key));
  for (const auto& d : dims_)
    DPS_CHECK(d.key != key, std::string("duplicate dimension ") + paramName(key));
  dims_.push_back(ParamDim{key, lo, hi});
  return *this;
}

std::vector<double> ParamSpace::encode(const Candidate& c) const {
  std::vector<double> x;
  x.reserve(dims_.size());
  for (const auto& d : dims_) x.push_back(getParam(c, d.key));
  return x;
}

Candidate ParamSpace::apply(Candidate base, const std::vector<double>& x) const {
  DPS_CHECK(x.size() == dims_.size(), "encoding size does not match the space");
  for (std::size_t i = 0; i < dims_.size(); ++i) setParam(base, dims_[i].key, x[i]);
  return base;
}

std::vector<double> ParamSpace::clamp(std::vector<double> x) const {
  DPS_CHECK(x.size() == dims_.size(), "encoding size does not match the space");
  for (std::size_t i = 0; i < dims_.size(); ++i)
    x[i] = std::min(dims_[i].hi, std::max(dims_[i].lo, x[i]));
  return x;
}

std::vector<double> ParamSpace::center() const {
  std::vector<double> x;
  x.reserve(dims_.size());
  for (const auto& d : dims_) x.push_back(0.5 * (d.lo + d.hi));
  return x;
}

ParamSpace ParamSpace::around(const Candidate& warmStart, bool includeFidelityDims) {
  const double lat = toSeconds(warmStart.profile.latency);
  const double bw = warmStart.profile.bandwidthBytesPerSec;
  const double step = toSeconds(warmStart.profile.perStepOverhead);
  DPS_CHECK(lat > 0 && bw > 0, "warm start needs positive latency and bandwidth");
  ParamSpace space;
  space.add(Param::LatencySec, lat * 0.25, lat * 4.0);
  space.add(Param::BandwidthBytesPerSec, bw * 0.25, bw * 4.0);
  space.add(Param::PerStepOverheadSec, 0.0, std::max(step * 4.0, 1e-6));
  space.add(Param::KernelScale, 0.5, 2.0);
  if (includeFidelityDims) {
    const double local = toSeconds(warmStart.profile.localDelivery);
    const double out = warmStart.profile.cpuPerOutgoingTransfer;
    const double in = warmStart.profile.cpuPerIncomingTransfer;
    const double compute = warmStart.profile.computeScale;
    space.add(Param::LocalDeliverySec, 0.0, std::max(local * 4.0, 1e-6));
    space.add(Param::CpuPerOutgoingTransfer, 0.0, std::max(out * 4.0, 0.04));
    space.add(Param::CpuPerIncomingTransfer, 0.0, std::max(in * 4.0, 0.08));
    DPS_CHECK(compute > 0, "warm start needs a positive compute scale");
    space.add(Param::ComputeScale, compute * 0.5, compute * 2.0);
  }
  return space;
}

// ---------------------------------------------------------------------------
// Objective

ValidationScenario ValidationScenario::luCase(const lu::LuConfig& cfg,
                                              std::uint64_t fidelitySeed,
                                              const mall::AllocationPlan& plan,
                                              mall::RemovalPolicy policy) {
  ValidationScenario s;
  s.run.lu = cfg;
  s.run.plan = plan;
  s.run.policy = policy;
  s.run.slicePhases = false; // only the makespan is read
  s.fidelitySeed = fidelitySeed;
  s.label = "LU " + cfg.variantName() + " n=" + std::to_string(cfg.n) + " r=" +
            std::to_string(cfg.r) + " w=" + std::to_string(cfg.workers) +
            (plan.empty() ? std::string{} : " [" + plan.describe() + "]");
  return s;
}

ValidationScenario ValidationScenario::jacobiCase(const jacobi::JacobiConfig& cfg,
                                                  std::uint64_t fidelitySeed) {
  ValidationScenario s;
  s.run.app = sched::AppKind::Jacobi;
  s.run.jacobi = cfg;
  s.run.slicePhases = false; // only the makespan is read
  s.fidelitySeed = fidelitySeed;
  s.label = "Jacobi " + std::to_string(cfg.rows) + "x" + std::to_string(cfg.cols) +
            " s=" + std::to_string(cfg.sweeps) + " w=" + std::to_string(cfg.workers);
  return s;
}

double ObjectiveSpec::score(const std::vector<double>& signedErrors) {
  DPS_CHECK(!signedErrors.empty(), "scoring needs at least one error");
  double sum = 0;
  for (double e : signedErrors) sum += std::abs(e);
  return sum / static_cast<double>(signedErrors.size());
}

ObjectiveSpec ObjectiveSpec::validationSet() {
  ObjectiveSpec spec;
  lu::LuConfig lu;
  lu.n = 64;
  lu.r = 16;
  lu.workers = 2;
  spec.scenarios.push_back(ValidationScenario::luCase(lu, 11));

  lu::LuConfig coarse = lu;
  coarse.r = 32;
  spec.scenarios.push_back(ValidationScenario::luCase(coarse, 12));

  lu::LuConfig wide;
  wide.n = 96;
  wide.r = 24;
  wide.workers = 4;
  wide.pipelined = true;
  spec.scenarios.push_back(ValidationScenario::luCase(wide, 13));

  lu::LuConfig shrinking = lu;
  shrinking.workers = 4;
  spec.scenarios.push_back(ValidationScenario::luCase(
      shrinking, 14, mall::AllocationPlan::killAfter({{1, {2, 3}}})));

  jacobi::JacobiConfig jac;
  jac.rows = 64;
  jac.cols = 64;
  jac.sweeps = 6;
  jac.workers = 4;
  spec.scenarios.push_back(ValidationScenario::jacobiCase(jac, 15));
  return spec;
}

ScenarioObjective::ScenarioObjective(EngineSettings reference, Candidate base, ParamSpace space,
                                     ObjectiveSpec spec, unsigned jobs)
    : reference_(std::move(reference)),
      base_(std::move(base)),
      space_(std::move(space)),
      scenarios_(std::move(spec.scenarios)) {
  DPS_CHECK(!scenarios_.empty(), "objective needs at least one scenario");
  referenceSec_.resize(scenarios_.size());
  parallelFor(scenarios_.size(), jobs,
              [&](std::size_t i) { referenceSec_[i] = measureReferenceSec(scenarios_[i]); });
  for (double r : referenceSec_) DPS_CHECK(r > 0, "reference run with zero makespan");
}

std::string ScenarioObjective::scenarioLabel(std::size_t scenario) const {
  return scenarios_[scenario].label;
}

double ScenarioObjective::measureReferenceSec(const ValidationScenario& s) const {
  sched::EngineRunSpec spec = s.run;
  spec.config = reference_.referenceConfig(s.fidelitySeed);
  spec.config.recordTrace = false; // only the makespan is read
  spec.luModel = reference_.settings().model;
  spec.jacobiModel = jacobiModel_;
  // Reference runs are pure functions of (scenario, settings): acquire them
  // through the profile service so repeated objectives (re-runs, warm
  // starts, tests) reuse earlier simulations.  Prediction legs stay direct
  // — every candidate is new, so caching them would only grow the map.
  return svc::acquireRun(spec).totalSec;
}

double ScenarioObjective::predictSec(const Candidate& c, const ValidationScenario& s) const {
  sched::EngineRunSpec spec = s.run;
  spec.config = reference_.predictorConfig();
  spec.config.profile = c.profile;
  spec.config.recordTrace = false; // only the makespan is read
  spec.luModel = reference_.settings().model.scaled(c.kernelScale);
  spec.jacobiModel = jacobiModel_;
  jacobi::JacobiCostModel& jm = spec.jacobiModel;
  jm.cellsPerSec *= c.kernelScale;
  jm.copyBytesPerSec *= c.kernelScale;
  jm.perKernelOverhead = scale(jm.perKernelOverhead, 1.0 / c.kernelScale);
  return sched::executeEngineRun(spec).totalSec;
}

double ScenarioObjective::scenarioError(const std::vector<double>& x,
                                        std::size_t scenario) const {
  const Candidate c = space_.apply(base_, x);
  const double predicted = predictSec(c, scenarios_[scenario]);
  return (predicted - referenceSec_[scenario]) / referenceSec_[scenario];
}

// ---------------------------------------------------------------------------
// Search strategies

void SearchHistory::append(EvalRecord rec) {
  rec.index = records.size();
  records.push_back(std::move(rec));
  // Strict < keeps the earliest record on ties, independent of concurrency.
  if (records.back().score < records[bestIndex].score) bestIndex = records.size() - 1;
}

GridSearch::GridSearch(std::size_t points) : points_(points) {}

std::vector<std::vector<double>> GridSearch::propose(const ParamSpace& space,
                                                     const SearchHistory& history,
                                                     std::size_t maxCandidates) {
  (void)history;
  if (emitted_ || maxCandidates == 0 || space.size() == 0 || points_ == 0) return {};
  emitted_ = true;
  const std::size_t budget = std::min(points_, maxCandidates);

  // Largest per-dimension level count whose full factorial fits the budget.
  std::size_t levels = 1;
  while (true) {
    std::size_t total = 1;
    bool overflow = false;
    for (std::size_t d = 0; d < space.size(); ++d) {
      total *= levels + 1;
      if (total > budget) {
        overflow = true;
        break;
      }
    }
    if (overflow) break;
    ++levels;
  }

  std::vector<std::vector<double>> axes;
  for (const auto& d : space.dims()) {
    std::vector<double> axis;
    if (levels == 1) {
      axis.push_back(0.5 * (d.lo + d.hi));
    } else {
      for (std::size_t i = 0; i < levels; ++i)
        axis.push_back(d.lo + d.width() * static_cast<double>(i) /
                                  static_cast<double>(levels - 1));
    }
    axes.push_back(std::move(axis));
  }

  // Row-major expansion (last dimension innermost), truncated to the budget.
  std::vector<std::vector<double>> out;
  std::vector<std::size_t> idx(space.size(), 0);
  while (out.size() < budget) {
    std::vector<double> x(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) x[d] = axes[d][idx[d]];
    out.push_back(std::move(x));
    std::size_t d = space.size();
    while (d > 0) {
      --d;
      if (++idx[d] < axes[d].size()) break;
      idx[d] = 0;
      if (d == 0) return out; // full grid emitted
    }
  }
  return out;
}

RandomSearch::RandomSearch(std::size_t points, std::uint64_t seed)
    : remaining_(points), rng_(seed) {}

std::vector<std::vector<double>> RandomSearch::propose(const ParamSpace& space,
                                                       const SearchHistory& history,
                                                       std::size_t maxCandidates) {
  (void)history;
  if (space.size() == 0) return {};
  const std::size_t count = std::min(remaining_, maxCandidates);
  remaining_ -= count;
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> x;
    x.reserve(space.size());
    for (const auto& d : space.dims()) x.push_back(rng_.uniform(d.lo, d.hi));
    out.push_back(std::move(x));
  }
  return out;
}

CoordinateDescent::CoordinateDescent(double initialStep, double minStep)
    : step_(initialStep), minStep_(minStep) {
  DPS_CHECK(initialStep > 0 && minStep > 0 && minStep <= initialStep,
            "coordinate-descent steps must satisfy 0 < minStep <= initialStep");
}

void CoordinateDescent::advanceDim(std::size_t dimCount) {
  if (++dim_ < dimCount) return;
  dim_ = 0;
  if (!improvedThisPass_) {
    step_ *= 0.5;
    if (step_ < minStep_) done_ = true;
  }
  improvedThisPass_ = false;
}

void CoordinateDescent::absorbPending(const SearchHistory& history) {
  const bool bootstrap = !std::isfinite(centerScore_);
  bool moved = false;
  for (std::size_t i = pendingFirst_; i < pendingFirst_ + pendingCount_; ++i) {
    const EvalRecord& rec = history.records[i];
    if (rec.score < centerScore_) {
      centerScore_ = rec.score;
      center_ = rec.x;
      moved = true;
    }
  }
  pendingCount_ = 0;
  if (bootstrap) return; // the center's own evaluation is not a probe
  if (moved) improvedThisPass_ = true;
  advanceDim(center_.size());
}

std::vector<std::vector<double>> CoordinateDescent::propose(const ParamSpace& space,
                                                            const SearchHistory& history,
                                                            std::size_t maxCandidates) {
  if (done_ || maxCandidates == 0 || space.size() == 0) return {};
  if (!initialized_) {
    initialized_ = true;
    if (history.empty()) {
      // No incumbent yet: evaluate the box center to bootstrap one.
      center_ = space.center();
      centerScore_ = std::numeric_limits<double>::infinity();
      pendingFirst_ = history.records.size();
      pendingCount_ = 1;
      return {center_};
    }
    center_ = history.best().x;
    centerScore_ = history.best().score;
  }
  if (pendingCount_ > 0) absorbPending(history);

  while (!done_) {
    const ParamDim& d = space.dims()[dim_];
    const double delta = step_ * d.width();
    std::vector<std::vector<double>> batch;
    for (double sign : {+1.0, -1.0}) {
      std::vector<double> x = center_;
      x[dim_] = std::min(d.hi, std::max(d.lo, x[dim_] + sign * delta));
      if (x[dim_] != center_[dim_]) batch.push_back(std::move(x));
    }
    if (batch.empty()) {
      // Both probes clamp onto the center; nothing to learn on this dim.
      advanceDim(space.size());
      continue;
    }
    if (batch.size() > maxCandidates) batch.resize(maxCandidates);
    pendingFirst_ = history.records.size();
    pendingCount_ = batch.size();
    return batch;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Driver

namespace {

void evaluateBatch(const Objective& objective, const std::vector<std::vector<double>>& batch,
                   const std::string& strategy, unsigned jobs, SearchHistory& history) {
  const std::size_t scenarios = objective.scenarioCount();
  DPS_CHECK(scenarios > 0, "objective has no scenarios");
  std::vector<std::vector<double>> errors(batch.size(), std::vector<double>(scenarios, 0.0));
  // One slot per (candidate, scenario): deterministic at any job count.
  parallelFor(batch.size() * scenarios, jobs, [&](std::size_t k) {
    errors[k / scenarios][k % scenarios] =
        objective.scenarioError(batch[k / scenarios], k % scenarios);
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EvalRecord rec;
    rec.strategy = strategy;
    rec.x = batch[i];
    rec.errors = std::move(errors[i]);
    rec.score = ObjectiveSpec::score(rec.errors);
    history.append(std::move(rec));
  }
}

} // namespace

std::vector<std::size_t> AutocalResult::ranking() const {
  std::vector<std::size_t> order(history.records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return history.records[a].score < history.records[b].score;
  });
  return order;
}

AutocalResult runCalibrationSearch(const Objective& objective, const ParamSpace& space,
                                   const std::vector<std::shared_ptr<SearchStrategy>>& strategies,
                                   const SearchOptions& options) {
  AutocalResult result;
  result.jobs = options.jobs == 0 ? ThreadPool::hardwareJobs() : options.jobs;
  std::size_t left = options.budget;

  if (!options.warmStart.empty() && left > 0) {
    evaluateBatch(objective, {space.clamp(options.warmStart)}, "warm-start", result.jobs,
                  result.history);
    result.hasWarmStart = true;
    --left;
  }

  for (const auto& strategy : strategies) {
    DPS_CHECK(strategy != nullptr, "null search strategy");
    while (left > 0) {
      auto batch = strategy->propose(space, result.history, left);
      if (batch.empty()) break;
      if (batch.size() > left) batch.resize(left);
      for (auto& x : batch) x = space.clamp(std::move(x));
      evaluateBatch(objective, batch, strategy->name(), result.jobs, result.history);
      left -= batch.size();
    }
  }
  DPS_CHECK(!result.history.empty(), "search made no evaluations (budget 0 and no warm start?)");
  return result;
}

// ---------------------------------------------------------------------------
// Report

namespace {

void writeParams(JsonWriter& w, const ParamSpace& space, const std::vector<double>& x) {
  w.beginObject();
  for (std::size_t i = 0; i < space.dims().size(); ++i)
    w.field(paramName(space.dims()[i].key), x[i]);
  w.endObject();
}

void writeProfile(JsonWriter& w, const Candidate& c) {
  w.beginObject(); // every Param in declaration order; KernelScale is the last
  for (std::uint8_t p = 0; p <= static_cast<std::uint8_t>(Param::KernelScale); ++p)
    w.field(paramName(static_cast<Param>(p)), getParam(c, static_cast<Param>(p)));
  w.endObject();
}

void writeEval(JsonWriter& w, const EvalRecord& rec, const ParamSpace& space) {
  w.beginObject()
      .field("index", rec.index)
      .field("strategy", rec.strategy)
      .field("score", rec.score);
  w.key("params");
  writeParams(w, space, rec.x);
  w.endObject();
}

} // namespace

void writeReportJson(JsonWriter& w, const AutocalResult& result, const Objective& objective,
                     const ParamSpace& space, const Candidate& base) {
  w.beginObject()
      .field("jobs", result.jobs)
      .field("evaluations", result.history.records.size());
  w.key("scenarios").beginArray();
  for (std::size_t i = 0; i < objective.scenarioCount(); ++i)
    w.value(objective.scenarioLabel(i));
  w.endArray();
  w.key("warm_start");
  if (result.hasWarmStart) {
    writeEval(w, result.warmStart(), space);
  } else {
    w.null();
  }

  const EvalRecord& best = result.best();
  w.key("best")
      .beginObject()
      .field("index", best.index)
      .field("strategy", best.strategy)
      .field("score", best.score);
  w.key("params");
  writeParams(w, space, best.x);
  w.key("profile");
  writeProfile(w, space.apply(base, best.x));
  w.key("per_scenario").beginArray();
  for (std::size_t i = 0; i < best.errors.size(); ++i) {
    w.beginObject()
        .field("label", objective.scenarioLabel(i))
        .field("error", best.errors[i])
        .endObject();
  }
  w.endArray().endObject();

  w.key("ranking").beginArray();
  for (std::size_t idx : result.ranking()) w.value(idx);
  w.endArray();
  w.key("trace").beginArray();
  for (const EvalRecord& rec : result.history.records) writeEval(w, rec, space);
  w.endArray().endObject();
}

} // namespace dps::exp
