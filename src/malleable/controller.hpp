// Malleability controller: executes an allocation plan against a running
// simulation (paper §6/§8, "kill N threads after iteration k", extended to
// the §9 direction of true dynamic allocation with grow steps).
//
// At each iteration marker the controller deactivates the scheduled worker
// threads and migrates their column blocks to the remaining active workers
// (updating the shared ColumnDirectory, moving the thread-state data, and
// injecting the corresponding network transfers so the migration cost is
// modeled).  The column whose panel factorization is about to run — column
// `iteration` — stays pinned on its current owner until the next boundary;
// a thread still holding pinned columns is deallocated once they migrate.
//
// Grow steps reverse the process: a previously removed worker is
// reactivated at an iteration boundary and still-unfactored columns are
// rebalanced onto it from the most loaded active workers, injecting the
// reverse migration transfers — so shrink and grow traffic are both part of
// the predicted cost.
//
// With RemovalPolicy::MultOnly threads are merely excluded from the
// round-robin multiplication routing and keep their columns — an ablation
// that isolates load redistribution from node deallocation.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "core/engine.hpp"
#include "lu/builder.hpp"
#include "malleable/plan.hpp"
#include "obs/registry.hpp"

namespace dps::mall {

enum class RemovalPolicy : std::uint8_t {
  MigrateColumns, // full deallocation: columns move, nodes free up
  MultOnly,       // only multiplication work leaves the thread
};

class LuMalleabilityController {
public:
  /// Installs itself as the engine's marker hook.  The controller must
  /// outlive the engine run.
  LuMalleabilityController(core::SimEngine& engine, lu::LuBuild& build, AllocationPlan plan,
                           RemovalPolicy policy = RemovalPolicy::MigrateColumns);

  /// Attaches migration metrics (mall.shrinks/grows, per-direction byte
  /// counters, a per-column-move size histogram).  Call before the engine
  /// run; a null registry detaches.  Observation only — the controller's
  /// decisions and byte accounting are identical either way.
  void observeWith(obs::Registry* metrics);

  /// Threads removed so far and not re-added (for tests).
  const std::set<std::int32_t>& removed() const { return removed_; }
  /// Total bytes moved by column migrations, both directions.
  std::uint64_t migratedBytes() const { return shrinkMigratedBytes_ + growMigratedBytes_; }
  /// Bytes moved off shrinking workers / back onto regrown workers.
  std::uint64_t shrinkMigratedBytes() const { return shrinkMigratedBytes_; }
  std::uint64_t growMigratedBytes() const { return growMigratedBytes_; }

private:
  /// Applies plan steps scheduled at iteration 0: removals that take effect
  /// before the first compute segment (a replayed job that started below
  /// the build's worker count).  Grow steps at iteration 0 are rejected —
  /// there is nothing removed yet to re-add.
  void onRunStart();
  void onMarker(const std::string& name, std::int64_t value);
  void applyStep(const RemovalStep& step, std::int64_t iteration);
  void applyGrow(const GrowStep& step, std::int64_t iteration);
  /// Moves still-unfactored columns from the most loaded active workers
  /// onto the regrown `thread` until it holds an even share.
  void rebalanceOnto(std::int32_t thread, std::int64_t iteration);
  /// Migrates all movable columns off `thread`; defers the pinned column.
  void migrateColumns(std::int32_t fromThread, std::int64_t iteration);
  /// Moves one column and returns the bytes transferred.
  std::uint64_t moveColumn(std::int32_t col, std::int32_t fromThread, std::int32_t toThread);
  /// Picks the active thread with the fewest owned columns.
  std::int32_t leastLoadedActive() const;

  core::SimEngine& engine_;
  lu::LuBuild& build_;
  AllocationPlan plan_;
  RemovalPolicy policy_;
  std::set<std::int32_t> removed_;
  /// Threads waiting for a pinned column to become movable.
  std::set<std::int32_t> pendingMigration_;
  std::uint64_t shrinkMigratedBytes_ = 0;
  std::uint64_t growMigratedBytes_ = 0;
  // Null-safe metric handles (no-ops until observeWith attaches a registry).
  obs::Counter obsShrinks_;
  obs::Counter obsGrows_;
  obs::Counter obsShrinkBytes_;
  obs::Counter obsGrowBytes_;
  obs::Histogram obsMoveBytes_;
};

} // namespace dps::mall
