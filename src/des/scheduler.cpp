#include "des/scheduler.hpp"

#include "support/error.hpp"

namespace dps::des {

Scheduler::Scheduler(std::size_t reserveCapacity) { reserve(reserveCapacity); }

void Scheduler::reserve(std::size_t capacity) {
  if (capacity <= heap_.capacity()) return;
  heap_.reserve(capacity);
  slots_.reserve(capacity);
  freeSlots_.reserve(capacity);
}

EventId Scheduler::scheduleAt(SimTime at, Action action) {
  DPS_CHECK(at >= now_, "cannot schedule event in the past");
  DPS_CHECK(static_cast<bool>(action), "cannot schedule empty action");
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    DPS_CHECK(slots_.size() < kNotQueued, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  if (++s.generation == 0) s.generation = 1; // 0 is the default handle's
  s.action = std::move(action);
  heap_.push_back(Node{at, nextSeq_++, slot});
  siftUp(heap_.size() - 1);
  ++stats_.scheduled;
  if (heap_.size() > stats_.queueHighWater) stats_.queueHighWater = heap_.size();
  return EventId{slot, s.generation};
}

EventId Scheduler::scheduleAfter(SimDuration delay, Action action) {
  DPS_CHECK(delay >= SimDuration::zero(), "cannot schedule with negative delay");
  return scheduleAt(now_ + delay, std::move(action));
}

std::uint32_t Scheduler::liveSlot(EventId id) const {
  if (id.slot_ >= slots_.size()) return kNotQueued;
  const Slot& s = slots_[id.slot_];
  return s.generation == id.generation_ && s.heapPos != kNotQueued ? id.slot_ : kNotQueued;
}

bool Scheduler::pending(EventId id) const { return liveSlot(id) != kNotQueued; }

bool Scheduler::cancel(EventId id) {
  const std::uint32_t slot = liveSlot(id);
  if (slot == kNotQueued) return false;
  Slot& s = slots_[slot];
  removeAt(s.heapPos);
  s.heapPos = kNotQueued;
  freeSlots_.push_back(slot);
  ++stats_.cancelled;
  s.action = nullptr;
  return true;
}

bool Scheduler::rescheduleAt(EventId id, SimTime at) {
  DPS_CHECK(at >= now_, "cannot schedule event in the past");
  const std::uint32_t slot = liveSlot(id);
  if (slot == kNotQueued) return false;
  const std::size_t pos = slots_[slot].heapPos;
  heap_[pos].at = at;
  heap_[pos].seq = nextSeq_++;
  resift(pos);
  ++stats_.rescheduled;
  return true;
}

void Scheduler::place(std::size_t pos, const Node& n) {
  heap_[pos] = n;
  slots_[n.slot].heapPos = static_cast<std::uint32_t>(pos);
}

void Scheduler::siftUp(std::size_t pos) {
  const Node n = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(n, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, n);
}

void Scheduler::siftDown(std::size_t pos) {
  const Node n = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], n)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, n);
}

void Scheduler::resift(std::size_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 2]))
    siftUp(pos);
  else
    siftDown(pos);
}

void Scheduler::removeAt(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) heap_[pos] = heap_[last];
  heap_.pop_back();
  if (pos != last) resift(pos);
}

void Scheduler::fireTop() {
  const Node top = heap_.front();
  removeAt(0);
  // Free the slot before running the action, so re-entrant schedules,
  // cancels and reschedules see the firing event as no longer pending.
  Slot& s = slots_[top.slot];
  Action action = std::move(s.action);
  s.action = nullptr;
  s.heapPos = kNotQueued;
  freeSlots_.push_back(top.slot);
  now_ = top.at;
  ++stats_.fired;
  action();
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  fireTop();
  return true;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  for (; !heap_.empty(); ++n) fireTop();
  return n;
}

std::size_t Scheduler::runUntil(SimTime deadline) {
  std::size_t n = 0;
  for (; !heap_.empty() && heap_.front().at <= deadline; ++n) fireTop();
  if (now_ < deadline) now_ = deadline;
  return n;
}

void Scheduler::reset() {
  // Slots keep their generations, so every handle from before the reset
  // stays dead; clear() keeps the reserved capacity, so a reused scheduler
  // re-enters its steady state without reallocation.
  heap_.clear();
  freeSlots_.clear();
  for (std::size_t i = slots_.size(); i-- > 0;) {
    slots_[i].action = nullptr;
    slots_[i].heapPos = kNotQueued;
    freeSlots_.push_back(static_cast<std::uint32_t>(i));
  }
  now_ = simEpoch();
  nextSeq_ = 1;
  stats_ = SchedulerStats{};
}

} // namespace dps::des
