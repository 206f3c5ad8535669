// Table 1 — simulation times, memory consumption and predicted running
// times under the three simulation settings (paper §7):
//   direct execution / PDEXEC / PDEXEC + NOALLOC,
// plus the real-application references and the host-portability argument.
//
// Substitutions (DESIGN.md §4): the "real application" rows come from the
// high-fidelity virtual cluster (UltraSparc-440 platform profile); wall
// times and peak heap of the simulator process itself are measured for
// real on this host (dps_memtrack is linked into this binary).
// The simulator rows stay strictly serial whatever --jobs says: they report
// the process-wide peak heap, which concurrent runs would pollute.  Only the
// two reference-executor rows (no memory column) fan out.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "lu/app.hpp"
#include "support/memtrack.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dps;

namespace {

struct Row {
  std::string label;
  double wallSec = 0;
  std::size_t peakMb = 0;
  double predictedSec = -1; // -1 = N/A
};

Row measure(const std::string& label, core::SimConfig cfg, const lu::LuConfig& lucfg,
            const lu::KernelCostModel& model, bool allocate,
            std::shared_ptr<lu::KernelSampler> sampler = nullptr) {
  memtrack::resetPeak();
  const std::size_t base = memtrack::currentBytes();
  core::SimEngine engine(cfg);
  lu::LuBuild build = lu::buildLu(lucfg, model, allocate, std::move(sampler));
  auto result = lu::runLu(engine, build);
  lu::checkOutputs(lucfg, result);
  Row row;
  row.label = label;
  row.wallSec = result.wallSeconds;
  row.peakMb = (memtrack::peakBytes() - std::min(base, memtrack::peakBytes())) >> 20;
  row.predictedSec = toSeconds(result.makespan);
  return row;
}

} // namespace

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  const auto lucfg = bench::paperLu(216, 8); // the Table 1 configuration
  const auto usModel = lu::KernelCostModel::ultraSparc440();
  exp::ScenarioRunner runner(bench::paperSettings());

  std::printf("Table 1 reproduction: LU 2592x2592, r=216, 8 nodes, basic flow graph\n");
  std::printf("(virtual platform: %s; simulation host: this machine)\n\n",
              runner.settings().profile.name.c_str());

  Table t;
  t.header({"setting", "sim wall [s]", "peak mem [MB]", "predicted app time [s]"});

  // --- "real application" references on the virtual cluster (no memory
  // column: these two legs may run concurrently) ---
  double realSec[2] = {0, 0}; // [0] 8 nodes, [1] 1 node
  parallelFor(2, opts.jobs, [&](std::size_t leg) {
    auto cfg = lucfg;
    if (leg == 1) cfg.workers = 1;
    realSec[leg] =
        toSeconds(runner.runOne(cfg, {}, runner.referenceConfig(/*fidelitySeed=*/1)).makespan);
  });
  const double realParallel = realSec[0], realSerial = realSec[1];

  t.row({"real application (8 nodes, reference executor)", "-", "-",
         Table::num(realParallel, 1)});
  t.row({"real application (1 node, reference executor)", "-", "-", Table::num(realSerial, 1)});

  // --- simulator rows, measured for real on this host ---
  // Direct execution: kernels run, durations measured -> predictions are in
  // *this host's* time units (the paper's point about representativeness).
  core::SimConfig direct;
  direct.profile = runner.calibratedProfile();
  direct.mode = core::ExecutionMode::DirectExec;
  const Row rowDirect = measure("direct execution (sim, host kernels)", direct, lucfg,
                                usModel, /*allocate=*/true);

  core::SimConfig pdexec;
  pdexec.profile = runner.calibratedProfile();
  pdexec.mode = core::ExecutionMode::Pdexec;
  const Row rowPdexec =
      measure("PDEXEC (sim)", pdexec, lucfg, usModel, /*allocate=*/true);

  core::SimConfig noalloc = pdexec;
  noalloc.allocatePayloads = false;
  const Row rowNoalloc =
      measure("PDEXEC NOALLOC (sim)", noalloc, lucfg, usModel, /*allocate=*/false);

  // Host-calibrated PDEXEC: predictions for *this* host, comparable with
  // the direct-execution row.
  const auto hostModel = lu::KernelCostModel::calibrateHost();
  const Row rowHostCal = measure("PDEXEC (sim, host-calibrated model)", pdexec, lucfg,
                                 hostModel, /*allocate=*/true);

  // The paper's first-n-instances mode (§4): execute + measure the first
  // three instances of each kernel shape, charge the average afterwards.
  auto sampler = std::make_shared<lu::KernelSampler>(3);
  const Row rowSampled = measure("PDEXEC (sim, first-3-instances sampling)", pdexec, lucfg,
                                 usModel, /*allocate=*/true, sampler);

  auto addRow = [&](const Row& r) {
    t.row({r.label, Table::num(r.wallSec, 2), std::to_string(r.peakMb),
           r.predictedSec < 0 ? "-" : Table::num(r.predictedSec, 1)});
  };
  addRow(rowDirect);
  addRow(rowHostCal);
  addRow(rowSampled);
  addRow(rowPdexec);
  addRow(rowNoalloc);
  t.print(std::cout);

  std::printf("\npaper reference (UltraSparc II 440 MHz): real 62.3 s / serial 185.1 s;\n");
  std::printf("direct-exec sim 193.0 s/127 MB; PDEXEC 9.1 s/124 MB; NOALLOC 6.5 s/14 MB;\n");
  std::printf("predictions 60.7 / 60.3 / 59.9 s (within 1.4%%)\n\n");

  // --- shape checks (paper §7 claims) ---
  check(realSerial / realParallel > 2.0 && realSerial / realParallel < 4.0,
        "8-node speedup over serial is ~3x (paper: 185.1/62.3 = 2.97)");
  check(rowDirect.wallSec > 5.0 * rowPdexec.wallSec,
        "PDEXEC simulation is much faster than direct execution");
  check(rowNoalloc.wallSec <= rowPdexec.wallSec * 1.2, "NOALLOC is at least as fast as PDEXEC");
  check(rowPdexec.peakMb >= 5 * std::max<std::size_t>(rowNoalloc.peakMb, 1),
        "NOALLOC cuts simulation memory by ~10x (paper: 124 MB -> 14 MB)");
  check(rowPdexec.predictedSec == rowNoalloc.predictedSec,
        "NOALLOC does not change the predicted running time");
  const double predVsReal = rowPdexec.predictedSec / realParallel;
  check(predVsReal > 0.9 && predVsReal < 1.1,
        "PDEXEC prediction within 10% of the reference execution");
  // Portability: direct execution on this (faster) host predicts a
  // substantially shorter time than the UltraSparc-calibrated model —
  // "prediction results based on direct execution are not representative"
  // (§7).  The paper's hosts differed by 6.5x; this host's kernels are
  // ~2x the UltraSparc model, so we require a >=20% gap.
  check(rowDirect.predictedSec < 0.8 * rowPdexec.predictedSec,
        "host direct-exec predictions are not representative of the target");
  const double calAgree = rowHostCal.predictedSec / rowDirect.predictedSec;
  check(calAgree > 0.5 && calAgree < 2.0,
        "host-calibrated PDEXEC tracks direct execution on the same host");
  // The paper's PDEXEC validation: sampled-first-n predictions agree with
  // direct execution (60.3 s vs 60.7 s in Table 1) at a fraction of the
  // simulation cost.
  const double sampledAgree = rowSampled.predictedSec / rowDirect.predictedSec;
  check(sampledAgree > 0.85 && sampledAgree < 1.15,
        "first-n-instances sampling predicts within 15% of direct execution");
  // The cost saving is gated by the sampler's deterministic counts, not by
  // a wall-clock ratio a slow or busy host could fail: on this LU, 12
  // single-instance panel shapes plus 3 trsm and 3 gemm instances execute,
  // and every later instance charges the sampled average.
  std::printf("sampling: %llu kernel instances executed, %llu reused; sim wall %.2fx direct "
              "execution\n",
              static_cast<unsigned long long>(sampler->sampledCount()),
              static_cast<unsigned long long>(sampler->reusedCount()),
              rowSampled.wallSec / rowDirect.wallSec);
  check(sampler->sampledCount() == 18 && sampler->reusedCount() == 566,
        "sampling mode executes 18 kernel instances, reuses the average for 566");

  return bench::finish("table1_simulation_modes", opts);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
