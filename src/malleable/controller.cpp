#include "malleable/controller.hpp"

#include <limits>
#include <sstream>
#include <vector>

#include "lu/state.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace dps::mall {

std::string AllocationPlan::describe() const {
  if (empty()) return "static";
  std::ostringstream os;
  bool first = true;
  for (const RemovalStep& s : steps) {
    if (!first) os << " + ";
    first = false;
    os << "kill " << s.threads.size() << " after it. " << s.afterIteration;
  }
  for (const GrowStep& g : grows) {
    if (!first) os << " + ";
    first = false;
    os << "grow " << g.threads.size() << " after it. " << g.afterIteration;
  }
  return os.str();
}

LuMalleabilityController::LuMalleabilityController(core::SimEngine& engine, lu::LuBuild& build,
                                                   AllocationPlan plan, RemovalPolicy policy)
    : engine_(engine), build_(build), plan_(std::move(plan)), policy_(policy) {
  engine_.setMarkerHook(
      [this](const std::string& name, std::int64_t value, SimTime) { onMarker(name, value); });
  engine_.setRunStartHook([this] { onRunStart(); });
}

void LuMalleabilityController::observeWith(obs::Registry* metrics) {
  if (metrics == nullptr) {
    obsShrinks_ = obs::Counter{};
    obsGrows_ = obs::Counter{};
    obsShrinkBytes_ = obs::Counter{};
    obsGrowBytes_ = obs::Counter{};
    obsMoveBytes_ = obs::Histogram{};
    return;
  }
  obsShrinks_ = metrics->counter("mall.shrinks");
  obsGrows_ = metrics->counter("mall.grows");
  obsShrinkBytes_ = metrics->counter("mall.shrink_bytes");
  obsGrowBytes_ = metrics->counter("mall.grow_bytes");
  obsMoveBytes_ = metrics->histogram("mall.move_bytes", obs::bytesBounds());
}

void LuMalleabilityController::onRunStart() {
  for (const GrowStep& step : plan_.grows)
    DPS_CHECK(step.afterIteration > 0, "grow step at iteration 0 re-adds before any removal");
  for (const RemovalStep& step : plan_.steps)
    if (step.afterIteration == 0) applyStep(step, 0);
}

void LuMalleabilityController::onMarker(const std::string& name, std::int64_t value) {
  if (name != "iteration") return;
  for (const RemovalStep& step : plan_.steps)
    if (step.afterIteration == value) applyStep(step, value);
  for (const GrowStep& step : plan_.grows)
    if (step.afterIteration == value) applyGrow(step, value);

  if (policy_ == RemovalPolicy::MigrateColumns) {
    // Retry deferred migrations: the previously pinned column is movable now.
    for (auto it = pendingMigration_.begin(); it != pendingMigration_.end();) {
      const std::int32_t t = *it;
      migrateColumns(t, value);
      const bool empty = build_.directory->columnsOf(t).empty();
      if (empty) {
        engine_.deactivateThread(build_.workersGroup, t);
        it = pendingMigration_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void LuMalleabilityController::applyStep(const RemovalStep& step, std::int64_t iteration) {
  for (std::int32_t t : step.threads) {
    DPS_CHECK(!removed_.count(t), "thread removed twice by the allocation plan");
    removed_.insert(t);
    obsShrinks_.add();
    if (policy_ == RemovalPolicy::MultOnly) {
      engine_.deactivateThread(build_.workersGroup, t);
      continue;
    }
    migrateColumns(t, iteration);
    if (build_.directory->columnsOf(t).empty()) {
      engine_.deactivateThread(build_.workersGroup, t);
    } else {
      // A pinned column stays until the next boundary; the thread is
      // deallocated once it leaves.
      pendingMigration_.insert(t);
    }
  }
}

void LuMalleabilityController::applyGrow(const GrowStep& step, std::int64_t iteration) {
  for (std::int32_t t : step.threads) {
    DPS_CHECK(removed_.count(t) > 0, "grow step re-adds a thread that was never removed");
    removed_.erase(t);
    obsGrows_.add();
    // A thread still draining a pinned column was never engine-deactivated;
    // activateThread is a no-op for it and the drain is simply abandoned.
    pendingMigration_.erase(t);
    engine_.activateThread(build_.workersGroup, t);
    DPS_INFO("re-added thread ", t, " after iteration ", iteration);
    if (policy_ == RemovalPolicy::MigrateColumns) rebalanceOnto(t, iteration);
  }
}

void LuMalleabilityController::rebalanceOnto(std::int32_t thread, std::int64_t iteration) {
  // Only columns whose panel factorization has not run yet carry future
  // work; completed columns stay put (moving them buys nothing).  Column
  // `iteration` is pinned exactly as during shrink migration.
  const auto futureLoad = [&](std::int32_t t) {
    std::int32_t load = 0;
    for (std::int32_t col : build_.directory->columnsOf(t))
      if (col > iteration) ++load;
    return load;
  };
  std::vector<std::int32_t> active;
  std::int32_t future = 0;
  for (std::int32_t t = 0; t < build_.cfg.workers; ++t) {
    if (removed_.count(t)) continue;
    active.push_back(t);
    future += futureLoad(t);
  }
  // Ceil target: with fewer future columns than workers the regrown thread
  // still takes one whenever any donor holds strictly more than it — the
  // point of growing is that re-added nodes carry work again.
  const auto activeCount = static_cast<std::int32_t>(active.size());
  const std::int32_t target = (future + activeCount - 1) / activeCount;
  while (futureLoad(thread) < target) {
    // Donor: the most loaded active thread (ties -> lowest index).
    std::int32_t donor = -1;
    std::int32_t donorLoad = 0;
    for (std::int32_t t : active) {
      if (t == thread) continue;
      const std::int32_t load = futureLoad(t);
      if (load > donorLoad) {
        donorLoad = load;
        donor = t;
      }
    }
    if (donor < 0 || donorLoad <= futureLoad(thread)) break; // nothing to gain
    // Move the donor's deepest trailing column: it carries the most
    // remaining multiplication work.
    std::int32_t col = -1;
    for (std::int32_t c : build_.directory->columnsOf(donor))
      if (c > iteration) col = c;
    DPS_CHECK(col >= 0, "donor lost its future columns mid-rebalance");
    const std::uint64_t moved = moveColumn(col, donor, thread);
    growMigratedBytes_ += moved;
    obsGrowBytes_.add(moved);
  }
}

std::int32_t LuMalleabilityController::leastLoadedActive() const {
  std::int32_t best = -1;
  std::size_t bestLoad = std::numeric_limits<std::size_t>::max();
  for (std::int32_t t = 0; t < build_.cfg.workers; ++t) {
    if (removed_.count(t)) continue;
    const std::size_t load = build_.directory->columnsOf(t).size();
    if (load < bestLoad) {
      bestLoad = load;
      best = t;
    }
  }
  DPS_CHECK(best >= 0, "no active thread left to receive columns");
  return best;
}

void LuMalleabilityController::migrateColumns(std::int32_t fromThread, std::int64_t iteration) {
  for (std::int32_t col : build_.directory->columnsOf(fromThread)) {
    // Column `iteration` is pinned: its panel factorization is the next
    // compute segment on its current owner (see header).
    if (col == iteration) continue;
    const std::uint64_t moved = moveColumn(col, fromThread, leastLoadedActive());
    shrinkMigratedBytes_ += moved;
    obsShrinkBytes_.add(moved);
  }
}

std::uint64_t LuMalleabilityController::moveColumn(std::int32_t col, std::int32_t fromThread,
                                                   std::int32_t toThread) {
  auto* from = dynamic_cast<lu::LuThreadState*>(
      engine_.threadStateDuringRun(build_.workersGroup, fromThread));
  auto* to = dynamic_cast<lu::LuThreadState*>(
      engine_.threadStateDuringRun(build_.workersGroup, toThread));
  DPS_CHECK(from != nullptr && to != nullptr, "worker states missing during migration");

  const std::size_t bytes =
      static_cast<std::size_t>(build_.cfg.n) * build_.cfg.r * sizeof(double);

  if (auto it = from->columns.find(col); it != from->columns.end()) {
    to->columns.emplace(col, std::move(it->second));
    from->columns.erase(it);
  } else {
    DPS_CHECK(from->phantomColumns.erase(col) == 1,
              "migrating a column the source thread does not own");
    to->phantomColumns.insert(col);
  }
  // Pivot history moves with the panels it belongs to (verification only).
  for (auto it = from->pivotsByLevel.begin(); it != from->pivotsByLevel.end();) {
    if (it->first == col) {
      to->pivotsByLevel[it->first] = std::move(it->second);
      it = from->pivotsByLevel.erase(it);
    } else {
      ++it;
    }
  }

  build_.directory->setOwner(col, toThread);
  obsMoveBytes_.observe(static_cast<double>(bytes));
  engine_.injectTransfer(engine_.nodeOfThread(build_.workersGroup, fromThread),
                         engine_.nodeOfThread(build_.workersGroup, toThread), bytes);
  DPS_INFO("migrated column ", col, " from thread ", fromThread, " to ", toThread);
  return bytes;
}

} // namespace dps::mall
