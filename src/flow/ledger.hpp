// Split/merge instance bookkeeping and flow-control token accounting.
//
// Engine-agnostic: flow::Dispatcher, the dispatch code both the
// discrete-event simulator and the OS-thread runtime run, is its only
// client (the runtime calls it under its dispatch lock).  It answers the
// two questions the DPS runtime must answer:
//
//   1. *Merge completion* — a merge instance completes when its opener has
//      finished emitting AND every emission has been absorbed (paper §2:
//      "once all the results corresponding to the data objects originally
//      sent by a split operation have been collected").
//   2. *Flow control* — an opener instance may hold at most maxInFlight
//      objects between itself and its closer; emissions acquire a token,
//      absorptions at the closer release it (paper §2, Fig. 6).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "flow/ids.hpp"

namespace dps::flow {

class Ledger {
public:
  /// Opens a new instance scope for `opener`; returns its unique id.
  /// `maxInFlight` of 0 disables flow control for the instance.
  std::uint64_t openInstance(OpId opener, std::int32_t maxInFlight);

  /// Records one emission; returns the emission index.  Flow-control token
  /// availability must be checked first via canEmit().
  std::uint64_t recordEmission(std::uint64_t instance);

  /// True when the instance may emit (token available or FC disabled).
  bool canEmit(std::uint64_t instance) const;

  /// Opener finished emitting.  Returns true if the instance is already
  /// fully absorbed (the closer should finalize now).
  bool closeEmitter(std::uint64_t instance);

  /// Closer absorbed one object of the instance.  Returns true if this
  /// absorption completes the instance.
  bool recordAbsorb(std::uint64_t instance);

  /// Releases one flow-control token (called together with recordAbsorb).
  /// Returns true if an emitter might be unblocked by the release.
  bool releaseToken(std::uint64_t instance);

  bool isComplete(std::uint64_t instance) const;
  std::uint64_t emitted(std::uint64_t instance) const;
  std::uint64_t absorbed(std::uint64_t instance) const;
  OpId openerOf(std::uint64_t instance) const;

  /// Drops a completed instance's state.
  void erase(std::uint64_t instance);

  std::size_t liveInstances() const { return table_.size(); }

private:
  struct Entry {
    OpId opener = kNoOp;
    std::uint64_t emitted = 0;
    std::uint64_t absorbed = 0;
    std::int32_t maxInFlight = 0; // 0 = unlimited
    std::int32_t tokensHeld = 0;
    bool emitterClosed = false;
  };

  const Entry& get(std::uint64_t instance) const;
  Entry& get(std::uint64_t instance);

  std::unordered_map<std::uint64_t, Entry> table_;
  std::uint64_t nextInstance_ = 1;
};

} // namespace dps::flow
