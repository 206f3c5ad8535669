// Deterministic discrete-event scheduler.
//
// The kernel under both the paper-model simulator and the high-fidelity
// reference executor.  Events fire in (time, sequence) order, where every
// schedule and every reschedule draws the next sequence number, so events at
// equal timestamps fire in the order they were last (re)scheduled (FIFO).
// That makes every simulation a pure function of its inputs.
//
// The queue is an indexed binary min-heap.  Heap nodes are small
// {at, seq, slot} records; each event's action lives in a pooled slot (a
// vector with a free list) that records the event's current heap position.
// An EventId names a slot plus the slot's generation, so a handle outlives
// its event safely: once the event fires or is cancelled, or the slot is
// reused, the handle is dead.  Cancel removes the heap node in O(log n) and
// never leaves a tombstone, so the heap holds exactly the pending events.
//
// The simulator's resource models (net::StarNetwork, core::CpuModel) keep
// their activities in one shared set, des::Activities (des/activities.hpp),
// which moves an activity's completion every time its share changes: most
// scheduled events are moved many times before they fire.  rescheduleAt()
// does that in place in O(log n).  Its contract: rescheduleAt(id, at)
// leaves the queue in exactly the (at, seq) order that cancel(id) followed
// by scheduleAt(at, same action) would, because it gives the event a fresh
// sequence number.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/time.hpp"

namespace dps::des {

/// Handle to a scheduled event; query and cancel it through the Scheduler.
/// A default-constructed handle never names a pending event.
class EventId {
public:
  EventId() = default;

private:
  friend class Scheduler;
  EventId(std::uint32_t slot, std::uint32_t generation) : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0; // live slots never carry generation 0
};

/// Per-run event accounting.
struct SchedulerStats {
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rescheduled = 0;
  std::uint64_t fired = 0;
  /// Most events ever pending at once (queue-depth high-water mark).
  std::size_t queueHighWater = 0;
};

class Scheduler {
public:
  using Action = std::function<void()>;

  /// `reserveCapacity` pre-sizes the heap and the slot pool (amortizes away
  /// vector growth during the schedule-heavy start of a simulation).
  explicit Scheduler(std::size_t reserveCapacity = kDefaultReserve);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Grows the reserved capacity (never shrinks).
  void reserve(std::size_t capacity);

  SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `at` (>= now).
  EventId scheduleAt(SimTime at, Action action);
  /// Schedules `action` after `delay` (>= 0).
  EventId scheduleAfter(SimDuration delay, Action action);

  /// Cancels a pending event.  Returns false if it already fired / was
  /// cancelled.  Safe to call from inside event handlers.
  bool cancel(EventId id);
  /// Moves a pending event to `at` (>= now) with a fresh sequence number,
  /// exactly as cancel + scheduleAt of the same action would order it.
  /// Returns false (and does nothing) if the event is not pending; the
  /// event that is currently firing is no longer pending.
  bool rescheduleAt(EventId id, SimTime at);
  /// True while the event is still pending.
  bool pending(EventId id) const;

  /// Runs until the queue is empty.  Returns the number of events fired.
  std::size_t run();
  /// Runs until the queue is empty or the next event lies past `deadline`
  /// (the clock never passes the deadline).
  std::size_t runUntil(SimTime deadline);
  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  bool empty() const { return heap_.empty(); }
  std::size_t pendingCount() const { return heap_.size(); }
  std::uint64_t firedCount() const { return stats_.fired; }
  /// Most events ever pending at once (queue-depth high-water mark).
  std::size_t queueHighWater() const { return stats_.queueHighWater; }
  /// Counts since construction or the last reset().
  const SchedulerStats& stats() const { return stats_; }

  /// Resets clock, queue and counts; handles from before reset are dead.
  void reset();

private:
  static constexpr std::size_t kDefaultReserve = 1024;
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Node {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Action action;
    std::uint32_t heapPos = kNotQueued; // kNotQueued <=> free
    std::uint32_t generation = 0;
  };

  static bool earlier(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq; // FIFO among equal timestamps
  }
  /// Slot index of the pending event `id` names, or kNotQueued.
  std::uint32_t liveSlot(EventId id) const;
  void place(std::size_t pos, const Node& n);
  void siftUp(std::size_t pos);
  void siftDown(std::size_t pos);
  /// Restores the heap property around a node whose key changed.
  void resift(std::size_t pos);
  /// Removes the heap node at `pos`, keeping the heap property.
  void removeAt(std::size_t pos);
  /// Pops the earliest event, frees its slot and runs its action.
  void fireTop();

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  SimTime now_ = simEpoch();
  std::uint64_t nextSeq_ = 1;
  SchedulerStats stats_;
};

} // namespace dps::des
