// SimEngine — the paper's simulator (§3–§4).
//
// Executes a DPS flow-graph application under a discrete-event virtual
// clock.  Operation bodies are *directly executed* (the DPS runtime and the
// application's routing/decomposition logic really run); only the duration
// of each atomic step is virtual, obtained either from wall-clock
// measurement of the body (DirectExec) or from application-charged model
// costs (Pdexec).  Exactly one operation body runs at a time — the inline
// equivalent of the paper's simulator-thread/execution-thread alternation
// (Fig. 3/4) — while steps overlap freely in *virtual* time.
//
// The DPS runtime itself — activations, split/merge instances, flow-control
// tokens, routing, retirement, deadlock detection — is flow::Dispatcher,
// the same code rt::RuntimeEngine runs for real.  This engine adds:
//   * a StarNetwork (latency + equal-share bandwidth, §4) that carries
//     routed envelopes,
//   * a CpuModel (even CPU sharing, communication CPU overhead, §4) that
//     times each body's segment chain,
//   * dynamic allocation state (thread activation per group, §6/§8),
//   * trace recording for dynamic-efficiency analysis (§8).
//
// Thread-compatibility: an engine instance runs one program at a time on
// the calling thread; it is not reentrant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/cpu_model.hpp"
#include "core/result.hpp"
#include "des/scheduler.hpp"
#include "flow/dispatch.hpp"
#include "net/network.hpp"
#include "support/rng.hpp"

namespace dps::core {

class SimEngine : private flow::Dispatcher {
public:
  explicit SimEngine(SimConfig cfg);
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Called at every application progress marker, in virtual-time order.
  /// Hooks may call deactivateThread/activateThread/injectTransfer — this
  /// is how malleability controllers steer allocation during a run.
  using MarkerHook = std::function<void(const std::string&, std::int64_t, SimTime)>;
  void setMarkerHook(MarkerHook hook) { markerHook_ = std::move(hook); }

  /// Called once per run() after threads, states and the network exist but
  /// before the first input injects — the only instant an allocation change
  /// can apply before any compute segment.  Replay controllers use this to
  /// start a program below its build-time worker count (e.g. a job admitted
  /// at 2 of its 4 feasible nodes).  Allowed calls match marker hooks:
  /// deactivateThread/activateThread/injectTransfer/threadStateDuringRun.
  using RunStartHook = std::function<void()>;
  void setRunStartHook(RunStartHook hook) { runStartHook_ = std::move(hook); }

  /// Runs the program to completion and returns predictions + trace.
  /// Throws Error on deadlock (incomplete scopes at quiescence).
  RunResult run(const flow::Program& program);

  // --- dynamic allocation (valid during run(), e.g. from marker hooks) ---
  void deactivateThread(flow::GroupId group, std::int32_t index);
  void activateThread(flow::GroupId group, std::int32_t index);
  std::int32_t allocatedNodes() const;
  /// Injects a raw data movement (e.g. state migration when a thread is
  /// deallocated); `onDone` fires at delivery time.
  void injectTransfer(flow::NodeId src, flow::NodeId dst, std::size_t bytes,
                      std::function<void()> onDone = nullptr);
  /// Application state of a thread, accessible while a run is in progress
  /// (marker hooks use this to migrate state off deallocated threads).
  flow::ThreadState* threadStateDuringRun(flow::GroupId group, std::int32_t index);
  /// Node hosting a thread under the current deployment.
  flow::NodeId nodeOfThread(flow::GroupId group, std::int32_t index) const;
  SimTime now() const;

  const SimConfig& config() const { return cfg_; }

private:
  /// A body splits into segments at each post and marker; each segment's
  /// work runs on the CPU model before its action applies.
  struct Segment {
    SimDuration work{};
    enum class After : std::uint8_t { Nothing, Post, Mark } after = After::Nothing;
    serial::ObjectPtr post; // After::Post
    std::int32_t port = 0;
    std::string markName;   // After::Mark
    std::int64_t markValue = 0;
  };

  class ContextImpl; // OpContext implementation (defined in engine.cpp)
  friend class ContextImpl;

  void enqueue(ThreadCtx& t, Task task, bool front) override;
  void transmit(flow::Envelope env, flow::NodeId src, flow::NodeId dst) override;
  /// Runs the body of `t`'s next task inline unless `t` is busy.
  void maybeDispatch(ThreadCtx& t);
  /// Runs segment `idx` of the step's chain; continues via CPU-model
  /// completions until all segments are done, then finishes the step.
  void runChain(std::shared_ptr<std::vector<Segment>> segments, std::size_t idx, Step step,
                SimTime chainStart);
  void applySegmentAction(Activation& act, Segment& seg);
  void recordAllocation();

  SimDuration stepNoise(SimDuration work, flow::NodeId node);

  SimConfig cfg_;
  MarkerHook markerHook_;
  RunStartHook runStartHook_;

  // --- per-run state (the DPS runtime's lives in flow::Dispatcher) ---
  std::unique_ptr<des::Scheduler> sched_;
  std::unique_ptr<net::StarNetwork> network_;
  std::unique_ptr<CpuModel> cpu_;
  std::shared_ptr<trace::Trace> trace_;
  Rng fidelityRng_;
  std::vector<double> nodeSpeedFactor_;
  std::int32_t allocatedNodes_ = 0;
  bool running_ = false;
};

} // namespace dps::core
