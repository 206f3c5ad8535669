#include "core/engine.hpp"

#include <algorithm>
#include <chrono>

#include "support/error.hpp"
#include "support/log.hpp"

namespace dps::core {

// ---------------------------------------------------------------------------
// OpContext implementation
// ---------------------------------------------------------------------------

class SimEngine::ContextImpl final : public Dispatcher::Context {
public:
  ContextImpl(SimEngine& e, ThreadCtx& t) : Context(e, t), e_(e) {
    if (measured()) stamp_ = std::chrono::steady_clock::now();
  }

  SimTime now() const override { return e_.sched_->now(); }

  void post(serial::ObjectPtr obj, std::int32_t port) override {
    notePost(obj, port);
    boundary(Segment::After::Post);
    segs_.back().post = std::move(obj);
    segs_.back().port = port;
  }

  void charge(SimDuration d) override {
    DPS_CHECK(d >= SimDuration::zero(), "negative charge");
    pending_ += d;
  }

  bool executeKernels() const override { return e_.cfg_.mode == ExecutionMode::DirectExec; }
  bool allocatePayloads() const override { return e_.cfg_.allocatePayloads; }

  void marker(std::string_view name, std::int64_t value) override {
    boundary(Segment::After::Mark);
    segs_.back().markName = std::string(name);
    segs_.back().markValue = value;
  }

  /// Closes the final segment and returns the collected chain.
  std::vector<Segment> take() {
    boundary(Segment::After::Nothing);
    return std::move(segs_);
  }

private:
  bool measured() const { return e_.cfg_.mode == ExecutionMode::DirectExec; }

  void boundary(Segment::After after) {
    SimDuration w = pending_;
    pending_ = SimDuration::zero();
    if (measured()) {
      const auto n = std::chrono::steady_clock::now();
      w += std::chrono::duration_cast<SimDuration>(n - stamp_);
      stamp_ = n;
    }
    Segment s;
    s.work = w;
    s.after = after;
    segs_.push_back(std::move(s));
  }

  SimEngine& e_;
  std::vector<Segment> segs_;
  SimDuration pending_{};
  std::chrono::steady_clock::time_point stamp_{};
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SimEngine::SimEngine(SimConfig cfg) : cfg_(std::move(cfg)) {}
SimEngine::~SimEngine() = default;

SimTime SimEngine::now() const {
  DPS_CHECK(sched_ != nullptr, "now() outside a run");
  return sched_->now();
}

RunResult SimEngine::run(const flow::Program& program) {
  DPS_CHECK(!running_, "SimEngine::run is not reentrant");
  running_ = true;
  const auto wallStart = std::chrono::steady_clock::now();
  bind(program, cfg_.seed);

  sched_ = std::make_unique<des::Scheduler>();
  fidelityRng_.reseed(cfg_.fidelity.seed);
  nodeSpeedFactor_.assign(static_cast<std::size_t>(deployment_->nodeCount), 1.0);
  if (cfg_.fidelity.enabled) {
    const double runFactor =
        std::max(0.7, 1.0 + fidelityRng_.normal(0.0, cfg_.fidelity.perRunSpeedSigma));
    for (auto& f : nodeSpeedFactor_)
      f = std::max(0.7, runFactor *
                            (1.0 + fidelityRng_.normal(0.0, cfg_.fidelity.perNodeSpeedSigma)));
  }

  net::StarNetwork::Config ncfg;
  ncfg.latency = cfg_.profile.latency;
  ncfg.bytesPerSec = cfg_.profile.bandwidthBytesPerSec;
  ncfg.localDelivery = cfg_.profile.localDelivery;
  ncfg.fairShare = cfg_.networkContention;
  if (cfg_.fidelity.enabled) {
    ncfg.bandwidthEfficiency = cfg_.fidelity.bandwidthEfficiency;
    ncfg.extraLatency = [this](std::size_t bytes) {
      const FidelityConfig& f = cfg_.fidelity;
      SimDuration extra = f.perMessageOverhead;
      extra += scale(f.perMessageJitter, fidelityRng_.uniform());
      if (f.chunkBytes > 0)
        extra += f.perChunkOverhead * static_cast<std::int64_t>(bytes / f.chunkBytes);
      return extra;
    };
  }
  network_ = std::make_unique<net::StarNetwork>(*sched_, std::move(ncfg),
                                                deployment_->nodeCount);

  CpuModel::Config ccfg;
  ccfg.sharing = cfg_.cpuSharing;
  ccfg.commOverhead = cfg_.commCpuOverhead;
  ccfg.cpuPerIncoming = cfg_.profile.cpuPerIncomingTransfer;
  ccfg.cpuPerOutgoing = cfg_.profile.cpuPerOutgoingTransfer;
  cpu_ = std::make_unique<CpuModel>(*sched_, ccfg, deployment_->nodeCount);
  network_->setActivityObserver([this](net::NodeIndex node, int in, int out) {
    cpu_->setCommActivity(node, in, out);
  });

  trace_ = cfg_.recordTrace ? std::make_shared<trace::Trace>() : nullptr;
  recordAllocation();

  if (runStartHook_) runStartHook_();
  injectInputs(program.inputs);
  sched_->run();
  checkQuiescent();

  RunResult result;
  result.makespan = sched_->now().time_since_epoch();
  result.outputs = std::move(outputs_);
  result.counters = counters_;
  result.scheduler = sched_->stats();
  result.trace = trace_;
  result.threadStates = takeThreadStates();
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
  running_ = false;
  return result;
}

void SimEngine::enqueue(ThreadCtx& t, Task task, bool front) {
  if (front) t.ready.push_front(std::move(task));
  else t.ready.push_back(std::move(task));
  maybeDispatch(t);
}

void SimEngine::maybeDispatch(ThreadCtx& t) {
  if (t.busy || t.ready.empty()) return;
  t.busy = true;
  const Task task = std::move(t.ready.front());
  t.ready.pop_front();

  const Step step = begin(t, task);
  ContextImpl ctx(*this, t);
  runBody(step, task, ctx);
  end(step, ctx);
  auto segments = std::make_shared<std::vector<Segment>>(ctx.take());
  (*segments)[0].work += cfg_.profile.perStepOverhead;
  runChain(std::move(segments), 0, step, sched_->now());
}

SimDuration SimEngine::stepNoise(SimDuration work, flow::NodeId node) {
  if (!cfg_.fidelity.enabled || work <= SimDuration::zero()) return work;
  const double jitter = 1.0 + fidelityRng_.normal(0.0, cfg_.fidelity.computeJitter);
  const double factor = std::max(0.5, jitter * nodeSpeedFactor_.at(node));
  return scale(work, factor);
}

void SimEngine::runChain(std::shared_ptr<std::vector<Segment>> segments, std::size_t idx, Step step,
                         SimTime chainStart) {
  ThreadCtx& t = thread(step.act->thread);
  if (idx == segments->size()) {
    if (trace_) {
      trace::StepRecord rec;
      rec.node = t.node;
      rec.thread = t.ref;
      rec.op = step.act->op;
      rec.kind = step.kind;
      rec.start = chainStart;
      rec.end = sched_->now();
      for (const auto& s : *segments) rec.work += s.work;
      trace_->add(std::move(rec));
    }
    finish(t, step);
    maybeDispatch(t);
    return;
  }

  Segment& seg = (*segments)[idx];
  seg.work = stepNoise(seg.work, t.node); // settle noise into the record
  cpu_->startStep(t.node, seg.work, [this, segments, idx, step, chainStart] {
    applySegmentAction(*step.act, (*segments)[idx]);
    runChain(segments, idx + 1, step, chainStart);
  });
}

void SimEngine::applySegmentAction(Activation& act, Segment& seg) {
  if (seg.after == Segment::After::Post) {
    send(act, std::move(seg.post), seg.port);
  } else if (seg.after == Segment::After::Mark) {
    if (trace_) trace_->add(trace::MarkerRecord{seg.markName, seg.markValue, sched_->now()});
    if (markerHook_) markerHook_(seg.markName, seg.markValue, sched_->now());
  }
}

void SimEngine::transmit(flow::Envelope env, flow::NodeId src, flow::NodeId dst) {
  const SimTime sentAt = sched_->now();
  const std::size_t bytes = env.wireBytes;
  network_->send(src, dst, bytes, [this, env = std::move(env), src, dst, sentAt]() mutable {
    if (trace_) trace_->add(trace::TransferRecord{src, dst, env.wireBytes, sentAt, sched_->now()});
    ThreadCtx& t = thread(env.dst);
    enqueue(t, Task{flow::StepKind::Input, std::move(env), 0}, false);
  });
}

void SimEngine::deactivateThread(flow::GroupId group, std::int32_t index) {
  DPS_CHECK(running_, "allocation changes are only valid during a run");
  if (activeSets_.at(group).setActive(index, false)) {
    DPS_INFO("deactivated thread ", group, ":", index, " at ", sched_->now());
    recordAllocation();
  }
}

void SimEngine::activateThread(flow::GroupId group, std::int32_t index) {
  DPS_CHECK(running_, "allocation changes are only valid during a run");
  if (activeSets_.at(group).setActive(index, true)) recordAllocation();
}

std::int32_t SimEngine::allocatedNodes() const { return allocatedNodes_; }

flow::ThreadState* SimEngine::threadStateDuringRun(flow::GroupId group, std::int32_t index) {
  DPS_CHECK(running_, "thread states are only accessible during a run");
  return threads_.at(group).at(index).state.get();
}

flow::NodeId SimEngine::nodeOfThread(flow::GroupId group, std::int32_t index) const {
  DPS_CHECK(running_, "deployment is only bound during a run");
  return threads_.at(group).at(index).node;
}

void SimEngine::recordAllocation() {
  std::vector<char> used(static_cast<std::size_t>(deployment_->nodeCount), 0);
  for (std::size_t g = 0; g < threads_.size(); ++g)
    for (std::int32_t idx : activeSets_[g].indices())
      used[static_cast<std::size_t>(threads_[g][idx].node)] = 1;
  allocatedNodes_ = static_cast<std::int32_t>(std::count(used.begin(), used.end(), 1));
  if (trace_)
    trace_->add(trace::AllocationRecord{sched_ ? sched_->now() : simEpoch(), allocatedNodes_});
}

void SimEngine::injectTransfer(flow::NodeId src, flow::NodeId dst, std::size_t bytes,
                               std::function<void()> onDone) {
  DPS_CHECK(running_, "injectTransfer is only valid during a run");
  const SimTime sentAt = sched_->now();
  network_->send(src, dst, bytes, [this, src, dst, bytes, sentAt, onDone = std::move(onDone)] {
    if (trace_)
      trace_->add(trace::TransferRecord{src, dst, bytes, sentAt, sched_->now()});
    if (onDone) onDone();
  });
  if (src != dst) counters_.networkBytes += bytes;
}

} // namespace dps::core
