#include "sched/cluster.hpp"

#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <tuple>

#include "sched/cluster_loop.hpp"

namespace dps::sched {

namespace {

/// The production structures: per-event costs independent of the total
/// job count.
struct Indexed {
  /// Lazily compacted queue: a started job's entry becomes a tombstone
  /// that the head pops on contact, so no O(queue) mid-deque erases.
  class Queue {
  public:
    void push(std::size_t i) {
      q_.push_back(i);
      ++live_;
    }
    std::int32_t size() const { return live_; }
    std::size_t head() {
      while (q_.front() == kDead) q_.pop_front();
      return q_.front();
    }
    void popHead() {
      q_.pop_front();
      --live_;
    }
    /// Cursor walk over the live entries behind head().
    std::size_t behindHead() const { return skipDead(1); }
    bool done(std::size_t pos) const { return pos >= q_.size(); }
    std::size_t at(std::size_t pos) const { return q_[pos]; }
    std::size_t skip(std::size_t pos) const { return skipDead(pos + 1); }
    std::size_t take(std::size_t pos) {
      q_[pos] = kDead;
      --live_;
      return skipDead(pos + 1);
    }

  private:
    static constexpr std::size_t kDead = std::numeric_limits<std::size_t>::max();
    std::size_t skipDead(std::size_t pos) const {
      while (pos < q_.size() && q_[pos] == kDead) ++pos;
      return pos;
    }
    std::deque<std::size_t> q_;
    std::int32_t live_ = 0;
  };

  /// Ordered multiset of (estimated finish, nodes, job) over the running
  /// jobs, maintained in O(log running) per phase event.  The job index is
  /// a deterministic tiebreak; the (finish, nodes) order matches the
  /// reference sort, and equal-key jobs contribute identically to the
  /// shadow-time accumulation.
  class FinishOrder {
  public:
    explicit FinishOrder(std::size_t jobs) : where_(jobs) {}
    void update(std::size_t i, const detail::JobRt& rt) {
      drop(i);
      where_[i] = index_.insert(Key{rt.estFinishSec, rt.nodes, i});
    }
    void drop(std::size_t i) {
      std::optional<Index::iterator>& at = where_[i];
      if (!at) return;
      index_.erase(*at);
      at.reset();
    }
    template <class Visit>
    void walk(const std::vector<detail::JobRt>&, Visit&& visit) const {
      for (const auto& [finish, nodes, i] : index_)
        if (visit(finish, nodes)) return;
    }

  private:
    using Key = std::tuple<double, std::int32_t, std::size_t>;
    using Index = std::multiset<Key>;
    Index index_;
    std::vector<std::optional<Index::iterator>> where_; // job -> its entry
  };

  /// O(1): PhaseProfile::remainSec suffix sums.
  static double remaining(const PhaseProfile& p, std::int32_t phase) {
    return p.remainingFrom(phase);
  }
};

} // namespace

ClusterMetrics simulateCluster(const ClusterConfig& cfg, const Workload& workload,
                               const JobProfileTable& profiles, Policy& policy) {
  return detail::ClusterLoop<Indexed>(cfg, workload, profiles, policy).run();
}

} // namespace dps::sched
