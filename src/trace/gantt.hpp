// Timeline rendering: ASCII Gantt charts (one lane per node, like the
// paper's Fig. 2).
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace dps::trace {

/// Renders per-node activity lanes over [from, to) with `width` character
/// columns.  '#' = computing, '.' = idle; lane labels are node ids.
std::string renderGantt(const Trace& trace, SimTime from, SimTime to, std::size_t width = 100,
                        std::int32_t nodeCount = -1);

} // namespace dps::trace
