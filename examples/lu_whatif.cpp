// What-if studies with the simulator as an optimization tool (paper §4:
// "One may modify the bandwidth and latency parameters to evaluate the
// benefits of a faster network, or reduce the duration of various
// operations to identify the ones that should be optimized").
//
//   $ ./examples/lu_whatif --n=2592 --r=216 --workers=8
#include <cstdio>
#include <iostream>

#include "core/engine.hpp"
#include "lu/app.hpp"
#include "lu/builder.hpp"
#include "net/profile.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace dps;

namespace {

double predict(const lu::LuConfig& cfg, const lu::KernelCostModel& model,
               net::PlatformProfile profile) {
  core::SimConfig sc;
  sc.profile = std::move(profile);
  sc.mode = core::ExecutionMode::Pdexec;
  sc.allocatePayloads = false;
  sc.recordTrace = false;
  core::SimEngine engine(sc);
  lu::LuBuild build = lu::buildLu(cfg, model, false);
  return toSeconds(lu::runLu(engine, build).makespan);
}

} // namespace

int run(Cli& cli) {
  lu::LuConfig cfg;
  cfg.n = static_cast<std::int32_t>(cli.integer("n", 2592, "matrix dimension"));
  cfg.r = static_cast<std::int32_t>(cli.integer("r", 216, "block size"));
  cfg.workers = static_cast<std::int32_t>(cli.integer("workers", 8, "compute nodes"));
  cfg.pipelined = cli.flag("pipelined", "use the pipelined flow graph");
  cfg.validate();
  cli.finish();

  const auto model = lu::KernelCostModel::ultraSparc440();
  const auto base = net::ultraSparc440();
  const double baseline = predict(cfg, model, base);
  std::printf("LU %dx%d, r=%d, %s graph on %d nodes\n", cfg.n, cfg.n, cfg.r,
              cfg.variantName().c_str(), cfg.workers);
  std::printf("baseline prediction on %s: %.1fs\n\n", base.name.c_str(), baseline);

  // --- what if the network were faster? ----------------------------------
  Table net("What if the network changed?");
  net.header({"network", "predicted [s]", "speedup"});
  {
    auto p = base;
    net.row({"Fast Ethernet (baseline)", Table::num(baseline, 1), "1.00"});
    p.bandwidthBytesPerSec *= 10;
    const double t = predict(cfg, model, p);
    net.row({"10x bandwidth", Table::num(t, 1), Table::num(baseline / t, 2)});
    p.latency = microseconds(10);
    const double t2 = predict(cfg, model, p);
    net.row({"10x bandwidth + 12us latency", Table::num(t2, 1), Table::num(baseline / t2, 2)});
    auto gig = net::commodityGigabit();
    gig.computeScale = 1.0; // same CPUs, modern network
    const double t3 = predict(cfg, model, gig);
    net.row({"commodity gigabit", Table::num(t3, 1), Table::num(baseline / t3, 2)});
  }
  net.print(std::cout);

  // --- which kernel should we optimize? ----------------------------------
  Table k("\nWhat if one kernel were 2x faster?");
  k.header({"kernel sped up 2x", "predicted [s]", "speedup"});
  {
    auto m = model;
    m.gemmFlopsPerSec *= 2;
    const double t = predict(cfg, m, base);
    k.row({"block multiplication (gemm)", Table::num(t, 1), Table::num(baseline / t, 2)});
  }
  {
    auto m = model;
    m.panelFlopsPerSec *= 2;
    const double t = predict(cfg, m, base);
    k.row({"panel LU factorization", Table::num(t, 1), Table::num(baseline / t, 2)});
  }
  {
    auto m = model;
    m.trsmFlopsPerSec *= 2;
    const double t = predict(cfg, m, base);
    k.row({"triangular solve (trsm)", Table::num(t, 1), Table::num(baseline / t, 2)});
  }
  k.print(std::cout);

  // --- how many nodes are worth allocating? -------------------------------
  Table s("\nScaling: nodes vs predicted time");
  s.header({"nodes", "predicted [s]", "speedup", "efficiency"});
  const double serial = [&] {
    auto c = cfg;
    c.workers = 1;
    return predict(c, model, base);
  }();
  for (std::int32_t w : {1, 2, 4, 8, 12, 16}) {
    auto c = cfg;
    c.workers = w;
    const double t = predict(c, model, base);
    s.row({std::to_string(w), Table::num(t, 1), Table::num(serial / t, 2),
           Table::pct(serial / t / w, 0)});
  }
  s.print(std::cout);
  std::printf("\nAll numbers are pure predictions: no kernel was executed (PDEXEC+NOALLOC).\n");
  return 0;
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
