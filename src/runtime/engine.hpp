// RuntimeEngine — real concurrent execution of DPS flow-graph programs.
//
// The paper's framework runs applications either for real or under the
// simulator from the same source ("activating a compilation flag", §3).
// This engine is the "real" side: operations execute on OS worker threads
// (one per virtual node), data objects move through in-memory queues, and
// kernels always run.  The DPS runtime itself — activations, the instance
// ledger, flow control, routing, retirement, deadlock detection — is
// flow::Dispatcher, the same code core::SimEngine drives under its virtual
// clock, so a program that runs here produces byte-identical application
// results to a DirectExec simulation — the cross-validation used by the
// integration tests.
//
// Concurrency model: a single dispatch mutex guards all bookkeeping (the
// ready queues and every Dispatcher call); operation bodies run outside the
// lock.  This is deliberately coarse — correctness first; the simulator is
// the performance-measurement instrument, not this engine.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "flow/dispatch.hpp"

namespace dps::rt {

struct RuntimeConfig {
  /// Marker hook (called with the dispatch lock held; keep it short).
  std::function<void(const std::string&, std::int64_t)> markerHook;
  std::uint64_t seed = 42;
  /// Record wall-clock step/marker records (RunResult::trace).
  bool recordTrace = false;
};

class RuntimeEngine : private flow::Dispatcher {
public:
  explicit RuntimeEngine(RuntimeConfig cfg = {});
  ~RuntimeEngine();
  RuntimeEngine(const RuntimeEngine&) = delete;
  RuntimeEngine& operator=(const RuntimeEngine&) = delete;

  /// Runs the program on one OS thread per deployment node; returns when
  /// the application quiesces.  Throws Error on deadlock.
  core::RunResult run(const flow::Program& program);

private:
  class ContextImpl;
  friend class ContextImpl;

  void workerLoop(flow::NodeId node);
  /// Pops a runnable task on `node` into `task` and marks its thread busy
  /// (lock held); null if none.
  ThreadCtx* pickTask(flow::NodeId node, Task& task);
  /// Both hooks run under the lock: queue the task, count it outstanding
  /// and wake the destination node's worker.
  void enqueue(ThreadCtx& t, Task task, bool front) override;
  void transmit(flow::Envelope env, flow::NodeId src, flow::NodeId dst) override;

  RuntimeConfig cfg_;

  std::mutex mu_;
  std::vector<std::condition_variable> nodeCv_;
  std::condition_variable doneCv_;
  bool shuttingDown_ = false;
  std::uint64_t outstanding_ = 0; // queued tasks + running bodies

  std::vector<std::vector<ThreadCtx*>> nodeThreads_; // node -> its threads
  std::shared_ptr<trace::Trace> trace_;
  std::chrono::steady_clock::time_point runStart_{};
};

} // namespace dps::rt
