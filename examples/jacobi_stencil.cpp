// Jacobi heat-diffusion stencil — a second DPS application demonstrating
// the neighbourhood-exchange communication pattern of paper §2 ("relative
// thread indices") and the simulator's what-if capabilities on a
// communication pattern very different from the LU factorization.
//
//   $ ./examples/jacobi_stencil --rows=2880 --cols=2880 --sweeps=50
#include <cstdio>
#include <iostream>

#include "core/engine.hpp"
#include "jacobi/app.hpp"
#include "jacobi/objects.hpp"
#include "net/profile.hpp"
#include "runtime/engine.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace dps;

int run(Cli& cli) {
  jacobi::JacobiConfig cfg;
  cfg.rows = static_cast<std::int32_t>(cli.integer("rows", 2880, "grid rows"));
  cfg.cols = static_cast<std::int32_t>(cli.integer("cols", 2880, "grid cols"));
  cfg.sweeps = static_cast<std::int32_t>(cli.integer("sweeps", 50, "relaxation sweeps"));
  cli.finish();

  const jacobi::JacobiCostModel model;

  // --- predicted strong scaling on the 2006 reference platform -----------
  Table t("Predicted strong scaling (UltraSparc-440 / Fast Ethernet)");
  t.header({"workers", "predicted [s]", "speedup", "efficiency", "network MB"});
  double serial = 0;
  for (std::int32_t w : {2, 4, 6, 8, 12, 16}) {
    if (cfg.rows % w != 0) continue;
    auto c = cfg;
    c.workers = w;
    core::SimConfig sc;
    sc.profile = net::ultraSparc440();
    sc.mode = core::ExecutionMode::Pdexec;
    sc.allocatePayloads = false;
    core::SimEngine engine(sc);
    auto build = jacobi::buildJacobi(c, model, false);
    auto result = jacobi::runJacobi(engine, build);
    const double secs = toSeconds(result.makespan);
    if (serial == 0)
      serial = secs * 2; // 2-worker run approximates serial/1 x2 for speedup base
    t.row({std::to_string(w), Table::num(secs, 2), Table::num(serial / secs, 2),
           Table::pct(serial / secs / w, 0),
           Table::num(static_cast<double>(result.counters.networkBytes) / 1048576.0, 1)});
  }
  t.print(std::cout);
  std::printf("\nNote the scaling wall: each sweep is two master barriers, so the\n"
              "latency-bound exchange phase grows with workers while compute shrinks.\n\n");

  // --- run a small instance for real and verify ---------------------------
  jacobi::JacobiConfig smallCfg;
  smallCfg.rows = 64;
  smallCfg.cols = 64;
  smallCfg.sweeps = 20;
  smallCfg.workers = 4;
  auto build = jacobi::buildJacobi(smallCfg, model, true);
  rt::RuntimeEngine runtime;
  auto real = runtime.run(jacobi::makeProgram(build));
  const auto& res = dynamic_cast<const jacobi::JacobiResult&>(*real.outputs.at(0));
  const double diff = jacobi::verifyJacobi(smallCfg, real, build.workers);
  std::printf("real run (64x64, 20 sweeps, 4 strips on OS threads): final residual %.3e,\n"
              "max deviation from the serial reference: %.1e (bit-exact expected)\n",
              res.residual, diff);
  return diff == 0.0 ? 0 : 1;
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
