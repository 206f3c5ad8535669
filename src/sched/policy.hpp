// Pluggable cluster scheduling policies.
//
// The ClusterScheduler consults a policy at two kinds of decision points:
// when a queued job reaches the head of the queue (admission) and when a
// running job crosses a phase boundary (reallocation — the only moment a
// malleable application can reconfigure).  Policies are deterministic,
// stateless functions of the views they are handed, so a cluster simulation
// is a pure function of (workload, profiles, policy, config).
//
//   * FcfsRigid         — the baseline every scheduling study compares
//     against: jobs start strictly in arrival order at their full request
//     and hold it to completion (head-of-line blocking included).
//   * Equipartition     — classic malleable scheduling: every job is
//     entitled to totalNodes / jobs; running jobs shed nodes toward their
//     share at phase boundaries and queued jobs start as soon as their
//     share is free.
//   * EfficiencyShrink  — online allocation driven by dynamic efficiency
//     (the paper's §9 outlook): jobs start as large as currently possible
//     and release nodes whenever the *profiled* dynamic efficiency of their
//     upcoming phase falls below a threshold.
//   * GrowEager         — the opposite direction: freed nodes are handed to
//     running jobs at their next phase boundary instead of idling.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sched/profile.hpp"

namespace dps::sched {

/// Cluster-level state a policy may consult.
struct ClusterView {
  std::int32_t totalNodes = 0;
  std::int32_t freeNodes = 0;
  std::int32_t runningJobs = 0;
  std::int32_t queuedJobs = 0; // including the job under consideration
};

/// A queued job offered for admission.
struct QueuedJobView {
  std::int32_t id = 0;
  double waitedSec = 0;
};

/// A running job at a phase boundary.
struct RunningJobView {
  std::int32_t id = 0;
  std::int32_t nodes = 0; // current allocation
  std::int32_t phase = 0; // next phase index (0-based)
  std::int32_t phases = 0;
  /// Profiled dynamic efficiency of the upcoming phase at `nodes`.
  double efficiencyNext = 0;
};

/// Decision rationale a policy reports alongside its answer, so the flight
/// recorder can explain *why* an allocation was chosen instead of just
/// what it was.  `rule` is a static string naming the clause that fired
/// ("fair-share", "step-down", ...); score/threshold carry the numeric
/// comparison behind threshold rules (0 when not applicable).  Filling it
/// is mandatory but free: callers that don't record simply ignore it.
struct DecisionContext {
  const char* rule = "";
  double score = 0;
  double threshold = 0;
};

class Policy {
public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;

  /// Allocation to start the queued job with; 0 keeps it queued.  Jobs are
  /// offered strictly in arrival order and the scan stops at the first job
  /// that does not start (no backfill, so policies compare on allocation
  /// decisions alone).  Returning more than view.freeNodes keeps the job
  /// queued (rigid policies just return the full request).
  virtual std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                             const ClusterView& view, DecisionContext& ctx) = 0;

  /// Target allocation for a running job at a phase boundary.  The
  /// scheduler clamps the answer to the class's feasible allocations and
  /// grants growth only from currently free nodes.
  virtual std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                                  const ClusterView& view, DecisionContext& ctx) = 0;
};

class FcfsRigid final : public Policy {
public:
  std::string name() const override { return "fcfs-rigid"; }
  std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                     const ClusterView& view, DecisionContext& ctx) override;
  std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                          const ClusterView& view, DecisionContext& ctx) override;
};

class Equipartition final : public Policy {
public:
  std::string name() const override { return "equipartition"; }
  std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                     const ClusterView& view, DecisionContext& ctx) override;
  std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                          const ClusterView& view, DecisionContext& ctx) override;

private:
  /// totalNodes / max(1, running + queued), clamped into the class's
  /// feasible allocation set.
  static std::int32_t share(const ClassProfile& profile, const ClusterView& view);
};

class EfficiencyShrink final : public Policy {
public:
  explicit EfficiencyShrink(double threshold = 0.5) : threshold_(threshold) {}
  std::string name() const override { return "efficiency-shrink"; }
  std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                     const ClusterView& view, DecisionContext& ctx) override;
  std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                          const ClusterView& view, DecisionContext& ctx) override;
  double threshold() const { return threshold_; }

private:
  double threshold_;
};

/// Hands freed nodes straight back to running jobs: admission starts a job
/// at its fitting fair share (like Equipartition), and at every phase
/// boundary a running job grows into whatever nodes are free — the scheduler
/// loop has always granted growth from free nodes, this is the first policy
/// built around asking for it.  Never shrinks.
class GrowEager final : public Policy {
public:
  std::string name() const override { return "grow-eager"; }
  std::int32_t admit(const QueuedJobView& job, const ClassProfile& profile,
                     const ClusterView& view, DecisionContext& ctx) override;
  std::int32_t reallocate(const RunningJobView& job, const ClassProfile& profile,
                          const ClusterView& view, DecisionContext& ctx) override;
};

/// Factory for the tool/bench --policy flags: "fcfs-rigid" | "equipartition"
/// | "efficiency-shrink" | "grow-eager".  Throws ConfigError on unknown
/// names.
std::unique_ptr<Policy> makePolicy(const std::string& name);
/// All policy names, in ranking-report order.
std::vector<std::string> policyNames();

} // namespace dps::sched
