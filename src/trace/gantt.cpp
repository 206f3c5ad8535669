#include "trace/gantt.hpp"

#include <algorithm>
#include <cstdio>

#include "support/error.hpp"

namespace dps::trace {

std::string renderGantt(const Trace& trace, SimTime from, SimTime to, std::size_t width,
                        std::int32_t nodeCount) {
  DPS_CHECK(to > from, "empty gantt window");
  DPS_CHECK(width >= 10, "gantt too narrow");
  if (nodeCount < 0) {
    for (const auto& s : trace.steps()) nodeCount = std::max(nodeCount, s.node);
    ++nodeCount;
  }
  if (nodeCount <= 0) return "(no steps)\n";

  const double span = toSeconds(to - from);
  std::string out;
  char label[64];
  for (std::int32_t n = 0; n < nodeCount; ++n) {
    std::string lane(width, '.');
    for (const auto& s : trace.steps()) {
      if (s.node != n || s.end <= from || s.start >= to) continue;
      auto col = [&](SimTime t) {
        const double f = toSeconds(t - from) / span;
        return static_cast<std::size_t>(
            std::clamp(f, 0.0, 1.0) * static_cast<double>(width - 1));
      };
      const std::size_t lo = col(std::max(s.start, from));
      const std::size_t hi = col(std::min(s.end, to));
      for (std::size_t c = lo; c <= hi && c < width; ++c) lane[c] = '#';
    }
    std::snprintf(label, sizeof label, "node %2d |", n);
    out += label;
    out += lane;
    out += "|\n";
  }
  return out;
}

} // namespace dps::trace
