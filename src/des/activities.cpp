#include "des/activities.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::des {

Activities::Activities(Scheduler& sched, Handler onComplete)
    : sched_(sched), onComplete_(std::move(onComplete)) {
  DPS_CHECK(static_cast<bool>(onComplete_), "activities need a completion handler");
}

Activities::Id Activities::add(double work, Done onDone) {
  DPS_CHECK(work >= 0.0, "negative work");
  Id id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<Id>(slots_.size());
    slots_.emplace_back();
  }
  slots_[id] = Slot{work, 0.0, sched_.now(), std::move(onDone), EventId{}};
  return id;
}

void Activities::setRate(Id id, double rate) {
  DPS_CHECK(rate > 0.0, "activity granted zero rate");
  Slot& s = slots_[id];
  const SimTime now = sched_.now();
  if (s.rate > 0.0) {
    const double elapsed = toSeconds(now - s.lastUpdate);
    s.remaining = std::max(0.0, s.remaining - s.rate * elapsed);
  }
  s.lastUpdate = now;
  s.rate = rate;

  const SimTime at = now + seconds(s.remaining / rate);
  if (!sched_.rescheduleAt(s.completion, at))
    s.completion = sched_.scheduleAt(at, [this, id] { onComplete_(id); });
}

Activities::Done Activities::release(Id id) {
  Slot& s = slots_[id];
  sched_.cancel(s.completion);
  free_.push_back(id);
  return std::move(s.onDone);
}

} // namespace dps::des
