// [CHECK] verdicts: the claims a bench or tool asserts about its own
// results (who wins, by roughly what factor, which optimum is proven).
// Each verdict prints one "[CHECK] <claim> PASS|FAIL" line and is recorded
// for the binary's JSON artifact and its exit code, so every sweep doubles
// as a regression harness.
#pragma once

#include <cstddef>
#include <string>

#include "support/json.hpp"

namespace dps {

/// Prints and records one verdict.  Thread-safe: campaign sweeps check
/// from pool threads, and lines never interleave.
void check(bool ok, const std::string& claim);

/// Writes the recorded verdicts as a "checks" member: an array of
/// {"claim", "pass"} objects in the order they were checked.
void writeChecks(JsonWriter& w);

/// Prints the summary line and returns the number of failed checks.
std::size_t checkSummary();

} // namespace dps
