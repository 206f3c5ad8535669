// Dispatcher — the DPS runtime's dispatch semantics, written once.
//
// The paper's framework runs one application for real or under the
// simulator from the same source (§3): the DPS runtime really executes and
// only step durations differ.  Both engines therefore drive this one class —
// core::SimEngine inline under its virtual clock, rt::RuntimeEngine from OS
// worker threads under its dispatch lock.  It owns everything between a
// dequeued task and the next queued one:
//
//   * activations: one per leaf/split input, one per closer instance;
//   * split/merge scope instances and flow-control tokens (flow::Ledger):
//     parking an emitter without a token, waking it when a token frees;
//   * routing a post to its destination thread and counting it;
//   * retirement, merge finalization and deadlock detection at quiescence.
//
// An engine adds only what differs between real and simulated execution,
// through two hooks: how a task is queued on a thread (enqueue) and how a
// routed envelope reaches its destination (transmit).  It calls, per task
// popped from a ThreadCtx::ready queue:
//
//   begin() -> runBody() against a Context -> end() -> send() per post
//   (whenever the engine delivers it) -> finish()
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flow/active_set.hpp"
#include "flow/envelope.hpp"
#include "flow/graph.hpp"
#include "flow/ledger.hpp"
#include "support/rng.hpp"

namespace dps::flow {

struct RunCounters {
  std::uint64_t steps = 0;        // atomic steps executed
  std::uint64_t messages = 0;     // data objects posted (incl. same-node)
  std::uint64_t networkBytes = 0; // wire bytes crossing the network
};

class Dispatcher {
public:
  virtual ~Dispatcher() = default;

protected:
  struct Task {
    StepKind kind = StepKind::Input;
    Envelope env;          // Input
    std::uint64_t act = 0; // Emit / Finalize
  };

  struct Activation {
    std::uint64_t id = 0;
    OpId op = kNoOp;
    ThreadRef thread;
    std::unique_ptr<Operation> impl;
    InstancePath basePath;
    /// Opener scopes: port -> ledger instance (opened lazily on first use).
    std::map<std::int32_t, std::uint64_t> openScopes;
    /// Closer state: the scope instance this activation is collecting.
    std::uint64_t closingInstance = 0;
    bool isCloser = false;
    bool inputConsumed = false; // leaf/split: the triggering input was processed
    bool finalized = false;     // closer: onAllInputsDone completed
    bool finalizeQueued = false;
    bool parked = false;        // waiting for a flow-control token
    /// At most one Emit task may be queued per activation; otherwise a
    /// token-release wake racing with an input's drain enqueues two and
    /// the second finds no token.
    bool emitQueued = false;
    std::uint32_t inFlight = 0; // queued or running tasks
  };

  struct ThreadCtx {
    ThreadRef ref;
    NodeId node = -1;
    std::deque<Task> ready;
    bool busy = false;
    std::unique_ptr<ThreadState> state;
    Rng rng;
  };

  /// A dequeued task from begin() to finish().  `act` stays valid across
  /// that span: map nodes survive rehashing, and an activation with a task
  /// in flight never retires.
  struct Step {
    Activation* act = nullptr;
    StepKind kind = StepKind::Input;
    std::optional<InstanceFrame> absorbed; // closer input: the frame it absorbs
    std::int32_t expectedPort = -1;        // emit: the port emitOne must post on
  };

  /// The engine-independent half of an OpContext; engines add time, posts,
  /// charges and markers.
  class Context : public OpContext {
  public:
    Context(Dispatcher& d, ThreadCtx& t) : d_(d), t_(t) {}
    std::int32_t threadIndex() const override { return t_.ref.index; }
    std::int32_t groupSize(GroupId g) const override {
      return static_cast<std::int32_t>(d_.threads_.at(g).size());
    }
    std::span<const std::int32_t> activeThreads(GroupId g) const override {
      return d_.activeSets_.at(g).indices();
    }
    ThreadState* threadState() override { return t_.state.get(); }
    Rng& rng() override { return t_.rng; }

  protected:
    /// Every post() override calls this first.
    void notePost(const serial::ObjectPtr& obj, std::int32_t port);

  private:
    friend class Dispatcher;
    Dispatcher& d_;
    ThreadCtx& t_;
    int posts_ = 0;
    std::int32_t lastPostPort_ = -1;
  };

  /// Validates the program, resets all per-run state and builds the thread
  /// table, each thread's RNG forked from `seed` in [group][index] order.
  void bind(const Program& program, std::uint64_t seed);
  /// Queues the inputs on the entry op's entry thread with an empty
  /// instance path, as if posted from outside the graph.
  void injectInputs(const std::vector<serial::ObjectPtr>& inputs);

  /// Resolves the task's activation and checks an emit before its body.
  Step begin(ThreadCtx& t, const Task& task);
  static void runBody(const Step& step, const Task& task, OpContext& ctx);
  /// Checks what the body posted and counts the step.
  void end(const Step& step, const Context& ctx);
  /// Routes one post of `act`: opens/extends its scope, counts the message,
  /// keeps program outputs and transmits everything else.
  void send(Activation& act, serial::ObjectPtr obj, std::int32_t port);
  /// Ledger, token wake-up, finalization and retirement after a step; frees
  /// the thread.
  void finish(ThreadCtx& t, const Step& step);
  /// Throws Error naming the stuck operations if work is left unfinished.
  void checkQuiescent() const;
  std::vector<std::vector<std::unique_ptr<ThreadState>>> takeThreadStates();

  ThreadCtx& thread(ThreadRef ref) { return threads_.at(ref.group).at(ref.index); }

  /// Queues `task` on `t` (at the front: an op keeps emitting without being
  /// preempted by queued arrivals).
  virtual void enqueue(ThreadCtx& t, Task task, bool front) = 0;
  /// Carries a routed envelope from node `src` to its destination thread.
  virtual void transmit(Envelope env, NodeId src, NodeId dst) = 0;

  const FlowGraph* graph_ = nullptr;
  const Deployment* deployment_ = nullptr;
  std::vector<std::vector<ThreadCtx>> threads_; // [group][index]
  std::vector<ActiveSet> activeSets_;           // [group]
  std::vector<serial::ObjectPtr> outputs_;
  RunCounters counters_;

private:
  Activation& activation(std::uint64_t id);
  Activation& newActivation(OpId op, ThreadRef thread, const InstancePath& path);
  Activation& resolveInputActivation(ThreadCtx& t, const Envelope& env);
  std::uint64_t scopeInstance(Activation& act, std::int32_t port);
  void drainOrPark(ThreadCtx& t, Activation& act);
  void maybeRetire(Activation& act);
  void scheduleFinalize(std::uint64_t instance);

  Ledger ledger_;
  std::unordered_map<std::uint64_t, Activation> activations_;
  std::unordered_map<std::uint64_t, std::uint64_t> closerByInstance_;
  std::unordered_map<std::uint64_t, std::uint64_t> tokenWaiters_; // instance -> activation
  std::uint64_t nextActivation_ = 1;
  std::uint64_t nextSeq_ = 1;
};

} // namespace dps::flow
