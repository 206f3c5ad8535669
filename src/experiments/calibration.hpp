// Platform-parameter calibration (paper §4: the latency and bandwidth
// parameters "must be measured or estimated separately for each target
// parallel machine").
//
// Runs message-probe programs on a reference-configured engine (i.e.
// through the fidelity layer standing in for the real machine) and fits
// the effective l and b of the t = l + s/b model from the observed
// per-transfer durations of small and large messages — the same two-point
// fit a ping-pong benchmark performs on physical hardware.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "net/profile.hpp"
#include "support/time.hpp"

namespace dps::exp {

struct CalibrationResult {
  SimDuration latency{};     // fitted l
  double bytesPerSec = 0;    // fitted b
  std::size_t probeCount = 0;
  SimDuration smallMean{};   // mean duration of the small-message probes
  SimDuration largeMean{};   // mean duration of the large-message probes
  /// Goodness of fit: mean relative deviation |observed - (l + s/b)| /
  /// (l + s/b) over every individual probe.  0 on a noiseless platform;
  /// grows with fidelity jitter — a large residual means the two-point
  /// model explains the machine poorly and a search (exp::autocal) is
  /// worth its budget.
  double residual = 0;
};

/// Measures l and b under `referenceCfg` with the fidelity "machine state"
/// pinned to `fidelitySeed` (overriding whatever seed the config carries),
/// so repeated calibrations are reproducible without mutating ambient
/// config state.  `rounds` probes are sent per message size (256 B and
/// 1 MiB).
CalibrationResult calibratePlatform(const core::SimConfig& referenceCfg,
                                    std::uint64_t fidelitySeed, int rounds);

/// Returns `base` with its latency/bandwidth replaced by the fit.
net::PlatformProfile applyCalibration(net::PlatformProfile base, const CalibrationResult& fit);

} // namespace dps::exp
