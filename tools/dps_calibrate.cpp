// dps_calibrate — automated calibration search for the simulator's platform
// parameters (paper §4: parameters "must be measured or estimated separately
// for each target parallel machine").
//
// Pipeline: a seeded two-point ping-pong fit (exp::calibratePlatform) warm-
// starts the search; an exploration strategy (seeded random or grid) sweeps
// the bounded parameter box; coordinate descent refines the incumbent.
// Every candidate is scored on the cross-app validation set (LU at several
// sizes/block sizes, a dynamic allocation plan, a Jacobi stencil) by the
// mean |signed error| of predicted vs reference runs, with the
// (candidate, scenario) simulations fanned out over --jobs pool workers.
//
// The warm start enters the evaluation history, so the reported best fit
// never scores worse than the two-point fit; the process exits non-zero if
// that invariant is ever violated.
//
// --metrics / --trace record the tool-level observability surface: wall-
// clock spans for the warm-start fit and the search itself, plus counters
// and gauges (evaluations run, warm/best scores) in an obs::Registry.
#include <cstdio>
#include <iostream>

#include "experiments/autocal.hpp"
#include "experiments/calibration.hpp"
#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dps;

namespace {

int run(Cli& cli) {
  const auto budget =
      cli.integer("budget", 32, "total candidate evaluations (warm start included)");
  const auto jobs = cli.jobs("jobs", "concurrent simulations (0 = hardware concurrency)");
  const auto seed = cli.integer("seed", 1, "search + fidelity machine-state seed");
  const auto rounds =
      cli.integer("rounds", 16, "ping-pong probes per message size for the warm start");
  const auto strategyName = cli.str("strategy", "random", "exploration strategy: random | grid");
  const bool wide = cli.flag("wide", "also search the fidelity-layer dimensions (local "
                                     "delivery, per-transfer CPU, compute scale)");
  Artifact& json = cli.artifact("json", "write the full report to this JSON file");
  Artifact& metricsOut = cli.artifact("metrics", "write the obs registry snapshot "
                                      "(calibrate.*) to this JSON file");
  Artifact& traceOut = cli.artifact("trace", "write a Chrome trace-event JSON of the "
                                    "warm-start and search phases (wall time) to this file");
  if (budget < 1) throw ConfigError("--budget must be >= 1");
  if (rounds < 1 || rounds > 65536) throw ConfigError("--rounds must be in [1, 65536]");
  if (strategyName != "random" && strategyName != "grid")
    throw ConfigError("--strategy must be 'random' or 'grid', got '" + strategyName + "'");
  cli.finish();

  const exp::EngineSettings settings; // the reference fidelity profile
  const auto fidelitySeed = static_cast<std::uint64_t>(seed);

  // Observability: wall-clock phase spans and search-level gauges, recorded
  // only when the flags asked for files.
  obs::Registry registry;
  obs::TraceSink trace;
  const obs::WallClock wall;
  if (traceOut) trace.processName(0, "dps_calibrate");

  // Warm start: the seeded two-point ping-pong fit through the fidelity
  // layer, exactly what a calibration benchmark measures on real hardware.
  const double warmStartMicros = wall.elapsedMicros();
  const exp::ScenarioRunner runner(settings);
  const auto fit = exp::calibratePlatform(runner.referenceConfig(fidelitySeed), fidelitySeed,
                                          static_cast<int>(rounds));
  if (traceOut)
    trace.completeSpan("warm-start", "calibrate", warmStartMicros,
                       wall.elapsedMicros() - warmStartMicros, 0, 0);
  exp::Candidate warm;
  warm.profile = exp::applyCalibration(settings.profile, fit);
  std::printf("warm start (two-point fit, seed %lld): l=%.1fus  b=%.2fMB/s  residual=%.4f\n",
              static_cast<long long>(seed), toMicros(fit.latency), fit.bytesPerSec / 1e6,
              fit.residual);

  const exp::ParamSpace space = exp::ParamSpace::around(warm, wide);
  std::printf("search space: %zu dimensions%s\n", space.size(),
              wide ? " (fidelity-layer dims included)" : "");
  const exp::ScenarioObjective objective(settings, warm, space,
                                         exp::ObjectiveSpec::validationSet(), jobs);

  std::printf("validation set (%zu scenarios):\n", objective.scenarioCount());
  for (std::size_t i = 0; i < objective.scenarioCount(); ++i)
    std::printf("  %-40s reference %.3fs\n", objective.scenarioLabel(i).c_str(),
                objective.referenceSec(i));

  // Budget split: 1 warm start, ~half exploration, the rest refinement.
  const auto total = static_cast<std::size_t>(budget);
  const std::size_t explore = (total - 1) / 2;
  std::vector<std::shared_ptr<exp::SearchStrategy>> strategies;
  if (strategyName == "grid")
    strategies.push_back(std::make_shared<exp::GridSearch>(explore));
  else
    strategies.push_back(std::make_shared<exp::RandomSearch>(explore, fidelitySeed));
  strategies.push_back(std::make_shared<exp::CoordinateDescent>());

  exp::SearchOptions options;
  options.budget = total;
  options.jobs = jobs;
  options.warmStart = space.encode(warm);
  const double searchStartMicros = wall.elapsedMicros();
  const auto result = exp::runCalibrationSearch(objective, space, strategies, options);
  if (traceOut)
    trace.completeSpan("search", "calibrate", searchStartMicros,
                       wall.elapsedMicros() - searchStartMicros, 0, 0,
                       "{\"strategy\":\"" + strategyName +
                           "\",\"budget\":" + std::to_string(budget) + "}");

  // Ranked report: best evaluations first.
  Table t("calibration search (" + std::to_string(result.history.records.size()) +
          " evaluations, jobs=" + std::to_string(result.jobs) + ")");
  t.header({"rank", "eval#", "strategy", "mean |error|"});
  const auto order = result.ranking();
  const std::size_t show = std::min<std::size_t>(order.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& rec = result.history.records[order[i]];
    t.row({std::to_string(i + 1), std::to_string(rec.index), rec.strategy,
           Table::num(rec.score, 5)});
  }
  t.print(std::cout);

  const auto& best = result.best();
  const double warmScore = result.warmStart().score;
  const exp::Candidate fitted = space.apply(warm, best.x);
  std::printf("\nbest fit (%s, eval %zu): mean |error| %.5f vs warm start %.5f\n",
              best.strategy.c_str(), best.index, best.score, warmScore);
  std::printf("  latency        %.1f us\n", toMicros(fitted.profile.latency));
  std::printf("  bandwidth      %.2f MB/s\n", fitted.profile.bandwidthBytesPerSec / 1e6);
  std::printf("  step overhead  %.1f us\n", toMicros(fitted.profile.perStepOverhead));
  std::printf("  kernel scale   %.4f\n", fitted.kernelScale);
  std::printf("per-scenario errors of the best fit:\n");
  for (std::size_t i = 0; i < best.errors.size(); ++i)
    std::printf("  %-40s %+.4f\n", objective.scenarioLabel(i).c_str(), best.errors[i]);

  if (json) {
    JsonWriter w(json.stream());
    exp::writeReportJson(w, result, objective, space, warm);
    DPS_CHECK(w.closed(), "unbalanced autocal report JSON");
    json.stream() << "\n";
  }
  if (metricsOut) {
    registry.counter("calibrate.evaluations")
        .add(static_cast<std::uint64_t>(result.history.records.size()));
    registry.counter("calibrate.scenarios")
        .add(static_cast<std::uint64_t>(objective.scenarioCount()));
    registry.gauge("calibrate.warm_score").set(warmScore);
    registry.gauge("calibrate.best_score").set(best.score);
    registry.gauge("calibrate.wall_sec").set(wall.elapsedSec());
    metricsOut.stream() << registry.jsonString() << "\n";
  }
  if (traceOut) trace.write(traceOut.stream());

  if (best.score > warmScore) {
    std::fprintf(stderr, "best fit scored worse than the warm start — search bug\n");
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) { return runMain(argc, argv, run); }
