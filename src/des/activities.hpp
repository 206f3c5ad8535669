// Activities on a shared resource (paper §4).
//
// The simulator's two resource models, the network links
// (net::StarNetwork) and the node CPUs (core::CpuModel), work alike: each
// activity has some work left and drains it at a rate its model derives
// from the resource's current sharing.  Whenever a share changes, the model
// calls setRate(), which settles the progress made under the old rate and
// moves the activity's completion event in place (Scheduler::rescheduleAt).
// Each model keeps only its own policy (which activities to re-rate and at
// what rate); the settlement is written here once.
//
// Activities live in dense slots that are reused once released; an Id is a
// slot index, valid from add() until release().  Model-specific fields live
// in the model, in vectors indexed by the same Id.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/scheduler.hpp"
#include "support/time.hpp"

namespace dps::des {

class Activities {
public:
  using Id = std::uint32_t;
  using Done = std::function<void()>;
  /// Receives every completion; the model releases the activity there.
  using Handler = std::function<void(Id)>;

  Activities(Scheduler& sched, Handler onComplete);
  // Pending completions capture `this`.
  Activities(const Activities&) = delete;
  Activities& operator=(const Activities&) = delete;

  /// Adds an activity with `work` units left and no rate yet (nothing is
  /// scheduled until the first setRate).  Reuses a released slot if any.
  Id add(double work, Done onDone);
  /// Settles progress under the old rate, sets `rate` (work units per
  /// simulated second, > 0) and moves the completion to now + remaining /
  /// rate, scheduling it if none is pending yet.
  void setRate(Id id, double rate);
  /// Frees the slot for reuse and returns its completion callback.  A
  /// completion still pending is cancelled, so it never fires.
  Done release(Id id);

private:
  struct Slot {
    double remaining = 0.0; // work units
    double rate = 0.0;      // work units per second; 0 until first setRate
    SimTime lastUpdate{};
    Done onDone;
    EventId completion;
  };

  Scheduler& sched_;
  Handler onComplete_;
  std::vector<Slot> slots_;
  std::vector<Id> free_;
};

} // namespace dps::des
