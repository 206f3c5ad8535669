#include <gtest/gtest.h>

#include <algorithm>

#include "trace/efficiency.hpp"
#include "trace/gantt.hpp"
#include "trace/trace.hpp"

namespace dps::trace {
namespace {

StepRecord step(flow::NodeId node, SimTime start, SimDuration dur, SimDuration work = {}) {
  StepRecord r;
  r.node = node;
  r.thread = {0, node};
  r.op = 0;
  r.start = start;
  r.end = start + dur;
  r.work = work == SimDuration::zero() ? dur : work;
  return r;
}

SimTime at(std::int64_t ms) { return simEpoch() + milliseconds(ms); }

TEST(TraceTest, TotalsAccumulate) {
  Trace t;
  t.add(step(0, at(0), milliseconds(10)));
  t.add(step(1, at(5), milliseconds(20)));
  t.add(TransferRecord{0, 1, 1000, at(0), at(1)});
  t.add(TransferRecord{1, 0, 500, at(2), at(3)});
  EXPECT_EQ(t.totalWork(), milliseconds(30));
  EXPECT_EQ(t.totalBytes(), 1500u);
}

TEST(TraceTest, BusyFractionMergesOverlaps) {
  Trace t;
  t.add(step(0, at(0), milliseconds(10)));
  t.add(step(0, at(5), milliseconds(10))); // overlaps the first
  // Busy [0,15) out of [0,20) = 0.75.
  EXPECT_NEAR(t.nodeBusyFraction(0, at(0), at(20)), 0.75, 1e-12);
  EXPECT_NEAR(t.nodeBusyFraction(1, at(0), at(20)), 0.0, 1e-12);
}

TEST(TraceTest, WorkInWindowIsProportional) {
  Trace t;
  t.add(step(0, at(0), milliseconds(10), milliseconds(6)));
  // Half the step overlaps [5, 15): contributes half the work.
  EXPECT_EQ(t.workIn(at(5), at(15)), milliseconds(3));
  // Fully inside a bigger window: whole work.
  EXPECT_EQ(t.workIn(at(0), at(20)), milliseconds(6));
}

TEST(TraceTest, NodeSecondsIntegratesAllocations) {
  Trace t;
  t.add(AllocationRecord{at(0), 8});
  t.add(AllocationRecord{at(10), 4});
  // [0,10): 8 nodes, [10,20): 4 nodes -> 0.08 + 0.04 node-seconds.
  EXPECT_NEAR(t.nodeSecondsIn(at(0), at(20)), 0.12, 1e-12);
  EXPECT_NEAR(t.nodeSecondsIn(at(5), at(15)), 0.06, 1e-12);
}

TEST(TraceTest, MarkersSortedByName) {
  Trace t;
  t.add(MarkerRecord{"iteration", 2, at(20)});
  t.add(MarkerRecord{"iteration", 1, at(10)});
  t.add(MarkerRecord{"other", 9, at(5)});
  const auto ms = t.markersNamed("iteration");
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].value, 1);
  EXPECT_EQ(ms[1].value, 2);
}

TEST(EfficiencyTest, PerfectUtilizationIsOne) {
  Trace t;
  t.add(AllocationRecord{at(0), 2});
  t.add(step(0, at(0), milliseconds(10)));
  t.add(step(1, at(0), milliseconds(10)));
  EXPECT_NEAR(overallEfficiency(t, at(0), at(10)), 1.0, 1e-9);
}

TEST(EfficiencyTest, IdleNodeHalvesEfficiency) {
  Trace t;
  t.add(AllocationRecord{at(0), 2});
  t.add(step(0, at(0), milliseconds(10)));
  EXPECT_NEAR(overallEfficiency(t, at(0), at(10)), 0.5, 1e-9);
}

TEST(EfficiencyTest, DeallocationRaisesEfficiency) {
  Trace t;
  // 2 nodes allocated, only node 0 working; node 1 freed at t=10.
  t.add(AllocationRecord{at(0), 2});
  t.add(AllocationRecord{at(10), 1});
  t.add(step(0, at(0), milliseconds(20)));
  t.add(MarkerRecord{"iteration", 1, at(10)});
  const auto pts = dynamicEfficiency(t, "iteration", at(0), at(20));
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_NEAR(pts[0].efficiency, 0.5, 1e-9);
  EXPECT_NEAR(pts[1].efficiency, 1.0, 1e-9);
}

TEST(EfficiencyTest, SegmentsFollowMarkers) {
  Trace t;
  t.add(AllocationRecord{at(0), 1});
  t.add(step(0, at(0), milliseconds(30)));
  t.add(MarkerRecord{"iteration", 1, at(10)});
  t.add(MarkerRecord{"iteration", 2, at(20)});
  const auto pts = dynamicEfficiency(t, "iteration", at(0), at(30));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].start, at(0));
  EXPECT_EQ(pts[0].end, at(10));
  EXPECT_EQ(pts[1].markerValue, 2);
  EXPECT_EQ(pts[2].end, at(30));
}

TEST(GanttTest, RendersLanesWithActivity) {
  Trace t;
  t.add(step(0, at(0), milliseconds(5)));
  t.add(step(1, at(5), milliseconds(5)));
  const std::string out = renderGantt(t, at(0), at(10), 40, 2);
  EXPECT_NE(out.find("node  0"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  // Two lanes.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

} // namespace
} // namespace dps::trace
