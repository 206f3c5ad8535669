// Data objects of the Jacobi stencil application.
//
// A second, independent DPS application (besides LU) exercising the
// "neighborhood exchange via relative thread indices" communication
// pattern the paper highlights in §2.  The grid is row-striped across
// worker threads; each sweep exchanges boundary rows with the upper/lower
// neighbours, then relaxes the strip.
#pragma once

#include <cstdint>
#include <vector>

#include "serial/object.hpp"

namespace dps::jacobi {

/// Program input: relax a rows x cols grid for `sweeps` iterations.
struct StartJacobi final : serial::ObjectBase {
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::int32_t sweeps = 0;
  std::size_t wireSize() const override { return serial::byteCount(rows, cols, sweeps); }
};

/// Order to ship one boundary row to a neighbour (+1 = down, -1 = up).
struct MoveOrder final : serial::ObjectBase {
  std::int32_t thread = 0;    // source strip owner
  std::int32_t direction = 0; // +1 or -1
  std::int32_t sweep = 0;
  std::size_t wireSize() const override { return serial::byteCount(thread, direction, sweep); }
};

/// A boundary row travelling to the neighbouring strip.
struct HaloRow final : serial::ObjectBase {
  std::int32_t fromThread = 0;
  std::int32_t direction = 0; // as in MoveOrder
  std::int32_t sweep = 0;
  std::vector<double> row;    // cols values (may be phantom-sized)
  std::int32_t phantomCols = 0;
  /// Header, the 1-byte phantom flag, an i32 column count and the values:
  /// the same count whether the row is real or suppressed (NOALLOC).
  std::size_t wireSize() const override {
    const std::size_t n =
        row.empty() && phantomCols > 0 ? static_cast<std::size_t>(phantomCols) : row.size();
    return serial::byteCount(fromThread, direction, sweep, std::uint8_t{}, std::int32_t{}) +
           n * sizeof(double);
  }
};

/// Acknowledgement that a halo row was stored at its destination.
struct HaloStored final : serial::ObjectBase {
  std::int32_t atThread = 0;
  std::int32_t sweep = 0;
  std::size_t wireSize() const override { return serial::byteCount(atThread, sweep); }
};

/// Order to relax one strip for the sweep.
struct ComputeOrder final : serial::ObjectBase {
  std::int32_t thread = 0;
  std::int32_t sweep = 0;
  std::size_t wireSize() const override { return serial::byteCount(thread, sweep); }
};

/// Strip relaxed; carries the strip's residual contribution.
struct StripDone final : serial::ObjectBase {
  std::int32_t thread = 0;
  std::int32_t sweep = 0;
  double residual = 0; // max |new - old| within the strip
  std::size_t wireSize() const override { return serial::byteCount(thread, sweep, residual); }
};

/// Program output: the relaxation finished.
struct JacobiResult final : serial::ObjectBase {
  std::int32_t sweeps = 0;
  double residual = 0; // max residual of the final sweep
  std::size_t wireSize() const override { return serial::byteCount(sweeps, residual); }
};

} // namespace dps::jacobi
