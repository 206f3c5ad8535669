// The reference cluster event loop: the shared loop body (cluster_loop.hpp)
// over the original linear-scan data structures — mid-deque queue erases,
// a sort of every running job per blocked-head pass, and remaining times
// recomputed as tail sums per query.  Per-event cost grows with the total
// job count, which is why simulateCluster replaced these structures; but
// they are simple enough to be obviously right, so they serve as the
// specification.  sched_test pins simulateCluster to this loop bit-for-bit
// (metrics JSON, recorder decisions and registry contents) and
// bench/cluster_scale measures the throughput ratio between the two.
#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "sched/cluster.hpp"
#include "sched/cluster_loop.hpp"

namespace dps::sched {

namespace {

struct LinearScan {
  /// Holds live entries only: starting a job erases it where it stands.
  class Queue {
  public:
    void push(std::size_t i) { q_.push_back(i); }
    std::int32_t size() const { return static_cast<std::int32_t>(q_.size()); }
    std::size_t head() const { return q_.front(); }
    void popHead() { q_.pop_front(); }
    std::size_t behindHead() const { return 1; }
    bool done(std::size_t pos) const { return pos >= q_.size(); }
    std::size_t at(std::size_t pos) const { return q_[pos]; }
    std::size_t skip(std::size_t pos) const { return pos + 1; }
    std::size_t take(std::size_t pos) {
      q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(pos));
      return pos; // the next entry slid into this slot
    }

  private:
    std::deque<std::size_t> q_;
  };

  /// No index: every walk scrapes the running jobs from the full job array
  /// and sorts them by (estimated finish, nodes).
  struct FinishOrder {
    explicit FinishOrder(std::size_t) {}
    void update(std::size_t, const detail::JobRt&) {}
    void drop(std::size_t) {}
    template <class Visit>
    void walk(const std::vector<detail::JobRt>& jobs, Visit&& visit) const {
      std::vector<std::pair<double, std::int32_t>> frees;
      for (const detail::JobRt& rt : jobs)
        if (rt.nodes > 0 && !rt.finished) frees.emplace_back(rt.estFinishSec, rt.nodes);
      std::sort(frees.begin(), frees.end());
      for (const auto& [finish, nodes] : frees)
        if (visit(finish, nodes)) return;
    }
  };

  /// O(phases): the tail sum, recomputed on every query.
  static double remaining(const PhaseProfile& p, std::int32_t phase) {
    double rest = 0;
    for (std::size_t q = static_cast<std::size_t>(phase); q < p.phaseSec.size(); ++q)
      rest += p.phaseSec[q];
    return rest;
  }
};

} // namespace

ClusterMetrics simulateClusterReference(const ClusterConfig& cfg, const Workload& workload,
                                        const JobProfileTable& profiles, Policy& policy) {
  return detail::ClusterLoop<LinearScan>(cfg, workload, profiles, policy).run();
}

} // namespace dps::sched
