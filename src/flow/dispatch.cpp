#include "flow/dispatch.hpp"

#include <sstream>
#include <string>

#include "support/error.hpp"

namespace dps::flow {

namespace {
/// Fixed per-message envelope overhead on the wire (headers, framing).
constexpr std::size_t kEnvelopeOverhead = 64;
} // namespace

void Dispatcher::Context::notePost(const serial::ObjectPtr& obj, std::int32_t port) {
  DPS_CHECK(obj != nullptr, "posting null data object");
  ++posts_;
  lastPostPort_ = port;
}

void Dispatcher::bind(const Program& program, std::uint64_t seed) {
  DPS_CHECK(program.graph != nullptr, "program has no graph");
  graph_ = program.graph;
  graph_->validate();
  program.deployment.validateAgainst(*graph_);
  deployment_ = &program.deployment;
  DPS_CHECK(!program.inputs.empty(), "program has no inputs");

  ledger_ = Ledger{};
  activations_.clear();
  closerByInstance_.clear();
  tokenWaiters_.clear();
  outputs_.clear();
  counters_ = RunCounters{};
  nextActivation_ = 1;
  nextSeq_ = 1;

  Rng master(seed);
  threads_.clear();
  threads_.resize(graph_->groupCount());
  activeSets_.assign(graph_->groupCount(), ActiveSet{});
  for (std::size_t g = 0; g < graph_->groupCount(); ++g) {
    const std::int32_t n = deployment_->threadsIn(static_cast<GroupId>(g));
    activeSets_[g].reset(n);
    threads_[g].resize(n);
    const auto& stateFactory = graph_->group(static_cast<GroupId>(g)).stateFactory;
    for (std::int32_t i = 0; i < n; ++i) {
      ThreadCtx& t = threads_[g][i];
      t.ref = ThreadRef{static_cast<GroupId>(g), i};
      t.node = deployment_->nodeOf(t.ref);
      t.rng = master.fork();
      if (stateFactory) t.state = stateFactory(i);
    }
  }
}

void Dispatcher::injectInputs(const std::vector<serial::ObjectPtr>& inputs) {
  const OpId entry = graph_->entryOp();
  ThreadCtx& t = threads_.at(graph_->op(entry).group).at(graph_->entryThread());
  for (const auto& obj : inputs) {
    Envelope env;
    env.payload = obj;
    env.dstOp = entry;
    env.dst = t.ref;
    env.seq = nextSeq_++;
    env.wireBytes = obj->wireSize() + kEnvelopeOverhead;
    enqueue(t, Task{StepKind::Input, std::move(env), 0}, false);
  }
}

Dispatcher::Activation& Dispatcher::activation(std::uint64_t id) {
  auto it = activations_.find(id);
  DPS_CHECK(it != activations_.end(), "unknown activation");
  return it->second;
}

Dispatcher::Activation& Dispatcher::newActivation(OpId op, ThreadRef thread,
                                                  const InstancePath& path) {
  const std::uint64_t id = nextActivation_++;
  Activation a;
  a.id = id;
  a.op = op;
  a.thread = thread;
  a.impl = graph_->op(op).factory();
  a.basePath = path;
  auto [it, ok] = activations_.emplace(id, std::move(a));
  DPS_CHECK(ok, "activation id collision");
  return it->second;
}

Dispatcher::Activation& Dispatcher::resolveInputActivation(ThreadCtx& t, const Envelope& env) {
  const OpSpec& spec = graph_->op(env.dstOp);
  if (spec.kind == OpKind::Leaf || spec.kind == OpKind::Split)
    return newActivation(env.dstOp, t.ref, env.path);

  // Merge / stream: keyed by the scope instance being closed.
  DPS_CHECK(!env.path.empty(),
            "object reached closer '" + spec.name + "' without an enclosing scope");
  const InstanceFrame& frame = env.path.back();
  DPS_CHECK(graph_->closerOf(frame.opener, frame.port) == env.dstOp,
            "object of scope opened by '" + graph_->op(frame.opener).name + "' port " +
                std::to_string(frame.port) + " arrived at non-matching closer '" + spec.name + "'");
  if (auto it = closerByInstance_.find(frame.instance); it != closerByInstance_.end()) {
    Activation& a = activation(it->second);
    DPS_CHECK(a.thread == t.ref,
              "closer '" + spec.name + "' instance received objects on two different threads; "
              "routing into a merge must be instance-consistent");
    return a;
  }
  Activation& a = newActivation(env.dstOp, t.ref, env.path);
  a.basePath.pop_back();
  a.isCloser = true;
  a.closingInstance = frame.instance;
  closerByInstance_[frame.instance] = a.id;
  return a;
}

Dispatcher::Step Dispatcher::begin(ThreadCtx& t, const Task& task) {
  Step step;
  step.kind = task.kind;
  if (task.kind == StepKind::Input) {
    step.act = &resolveInputActivation(t, task.env);
    if (step.act->isCloser) step.absorbed = task.env.path.back();
    step.act->inFlight++;
    return step;
  }
  step.act = &activation(task.act);
  if (task.kind == StepKind::Emit) {
    step.act->emitQueued = false;
    DPS_CHECK(step.act->impl->hasPending(), "emit dispatched with nothing pending");
    step.expectedPort = step.act->impl->pendingPort();
  }
  return step;
}

void Dispatcher::runBody(const Step& step, const Task& task, OpContext& ctx) {
  switch (step.kind) {
    case StepKind::Input:
      step.act->impl->onInput(ctx, *task.env.payload);
      break;
    case StepKind::Emit:
      step.act->impl->emitOne(ctx);
      break;
    case StepKind::Finalize:
      step.act->impl->onAllInputsDone(ctx);
      break;
  }
}

void Dispatcher::end(const Step& step, const Context& ctx) {
  if (step.kind == StepKind::Input) step.act->inputConsumed = true;
  if (step.kind == StepKind::Emit) {
    DPS_CHECK(ctx.posts_ == 1, "emitOne must post exactly one object");
    DPS_CHECK(ctx.lastPostPort_ == step.expectedPort,
              "emitOne posted on a different port than pendingPort()");
  }
  counters_.steps++;
}

std::uint64_t Dispatcher::scopeInstance(Activation& act, std::int32_t port) {
  if (auto it = act.openScopes.find(port); it != act.openScopes.end()) return it->second;
  DPS_CHECK(graph_->closerOf(act.op, port) != kNoOp,
            "op '" + graph_->op(act.op).name + "' has no scope on port " + std::to_string(port));
  const auto fc = graph_->flowControlOf(act.op, port);
  const std::uint64_t inst = ledger_.openInstance(act.op, fc.maxInFlight);
  act.openScopes.emplace(port, inst);
  return inst;
}

void Dispatcher::send(Activation& act, serial::ObjectPtr obj, std::int32_t port) {
  const OpSpec& spec = graph_->op(act.op);
  Envelope env;
  env.payload = obj;
  env.srcOp = act.op;
  env.src = act.thread;
  env.path = act.basePath;
  // Routing hint: forwards inherit the consumed emission index so that
  // round-robin routing of forwarded objects stays balanced.
  std::uint64_t rcEmission = act.basePath.empty() ? 0 : act.basePath.back().emission;

  if (graph_->closerOf(act.op, port) != kNoOp) {
    // Opener port: the post is an emission of this activation's scope.
    const std::uint64_t inst = scopeInstance(act, port);
    DPS_CHECK(ledger_.canEmit(inst),
              "flow-controlled port " + std::to_string(port) + " of '" + spec.name +
                  "' posted without a token; emit through hasPending()/emitOne()");
    const std::uint64_t emission = ledger_.recordEmission(inst);
    env.path.push_back(InstanceFrame{act.op, port, inst, emission});
    rcEmission = emission;
  }

  counters_.messages++;

  if (graph_->isOutputPort(act.op, port)) {
    outputs_.push_back(std::move(obj));
    return;
  }

  const auto edgeIdx = graph_->edgeAt(act.op, port);
  DPS_CHECK(edgeIdx.has_value(),
            "op '" + spec.name + "' posted on unconnected port " + std::to_string(port));
  const EdgeSpec& edge = graph_->edge(*edgeIdx);
  const GroupId dstGroup = graph_->op(edge.to).group;

  RouteContext rc;
  rc.srcThreadIndex = act.thread.index;
  rc.dstGroupSize = static_cast<std::int32_t>(threads_.at(dstGroup).size());
  rc.dstActive = activeSets_.at(dstGroup).indices();
  rc.emission = rcEmission;
  rc.seq = nextSeq_;
  const std::int32_t dstIdx = edge.route(rc, *obj);
  DPS_CHECK(dstIdx >= 0 && dstIdx < rc.dstGroupSize,
            "routing function returned out-of-range thread for edge into '" +
                graph_->op(edge.to).name + "'");

  env.dstOp = edge.to;
  env.dst = ThreadRef{dstGroup, dstIdx};
  env.seq = nextSeq_++;
  env.wireBytes = obj->wireSize() + kEnvelopeOverhead;

  const NodeId srcNode = thread(act.thread).node;
  const NodeId dstNode = thread(env.dst).node;
  if (srcNode != dstNode) counters_.networkBytes += env.wireBytes;
  transmit(std::move(env), srcNode, dstNode);
}

void Dispatcher::finish(ThreadCtx& t, const Step& step) {
  Activation& act = *step.act;
  DPS_CHECK(act.inFlight > 0, "task accounting underflow");
  act.inFlight--;

  if (step.kind == StepKind::Input && act.isCloser) {
    DPS_CHECK(step.absorbed.has_value(), "closer input without frame");
    const std::uint64_t inst = step.absorbed->instance;
    const bool completed = ledger_.recordAbsorb(inst);
    if (ledger_.releaseToken(inst)) {
      // A parked emitter may now resume.
      if (auto it = tokenWaiters_.find(inst); it != tokenWaiters_.end()) {
        Activation& waiter = activation(it->second);
        tokenWaiters_.erase(it);
        waiter.parked = false;
        DPS_CHECK(!waiter.emitQueued, "parked activation had a queued emit");
        waiter.emitQueued = true;
        waiter.inFlight++;
        enqueue(thread(waiter.thread), Task{StepKind::Emit, {}, waiter.id}, false);
      }
    }
    if (completed) scheduleFinalize(inst);
  }

  if (step.kind == StepKind::Finalize) {
    act.finalized = true;
    closerByInstance_.erase(act.closingInstance);
    ledger_.erase(act.closingInstance);
  }

  drainOrPark(t, act);
  maybeRetire(act); // may invalidate `act`
  t.busy = false;
}

void Dispatcher::drainOrPark(ThreadCtx& t, Activation& act) {
  if (act.parked || act.emitQueued || !act.impl->hasPending()) return;
  const std::uint64_t inst = scopeInstance(act, act.impl->pendingPort());
  if (ledger_.canEmit(inst)) {
    act.emitQueued = true;
    act.inFlight++;
    // Front of the queue: paper Fig. 4, Split1 and Split2 run back-to-back
    // even though T1 is delivered in between.
    enqueue(t, Task{StepKind::Emit, {}, act.id}, true);
  } else {
    act.parked = true;
    DPS_CHECK(tokenWaiters_.emplace(inst, act.id).second, "two emitters parked on one instance");
  }
}

void Dispatcher::maybeRetire(Activation& act) {
  if (act.inFlight > 0 || act.parked || act.emitQueued || act.impl->hasPending()) return;
  if (!(act.isCloser ? act.finalized : act.inputConsumed)) return;

  // Close every scope this activation opened; a scope whose emissions are
  // all absorbed already triggers its closer's finalization now.
  for (const auto& [port, inst] : act.openScopes) {
    (void)port;
    if (ledger_.closeEmitter(inst)) scheduleFinalize(inst);
  }
  activations_.erase(act.id);
}

void Dispatcher::scheduleFinalize(std::uint64_t instance) {
  auto it = closerByInstance_.find(instance);
  DPS_CHECK(it != closerByInstance_.end(), "completed instance has no closer activation");
  Activation& a = activation(it->second);
  DPS_CHECK(!a.finalizeQueued, "instance finalized twice");
  a.finalizeQueued = true;
  a.inFlight++;
  enqueue(thread(a.thread), Task{StepKind::Finalize, {}, a.id}, false);
}

void Dispatcher::checkQuiescent() const {
  if (activations_.empty() && ledger_.liveInstances() == 0 && tokenWaiters_.empty()) return;
  std::ostringstream os;
  os << "deadlock: run quiesced with unfinished work:";
  std::size_t listed = 0;
  for (const auto& [id, act] : activations_) {
    (void)id;
    if (listed++ >= 8) {
      os << " ...";
      break;
    }
    os << " [op '" << graph_->op(act.op).name << "' thread " << act.thread.group << ':'
       << act.thread.index << (act.parked ? " PARKED" : "") << (act.isCloser ? " closer" : "")
       << " inFlight=" << act.inFlight << ']';
  }
  os << " liveInstances=" << ledger_.liveInstances() << " waiters=" << tokenWaiters_.size();
  throw Error(os.str());
}

std::vector<std::vector<std::unique_ptr<ThreadState>>> Dispatcher::takeThreadStates() {
  std::vector<std::vector<std::unique_ptr<ThreadState>>> states(threads_.size());
  for (std::size_t g = 0; g < threads_.size(); ++g)
    for (auto& t : threads_[g]) states[g].push_back(std::move(t.state));
  return states;
}

} // namespace dps::flow
