#include "runtime/engine.hpp"

#include <thread>

#include "support/error.hpp"

namespace dps::rt {

// ---------------------------------------------------------------------------
// OpContext: collects posts/markers during a body; applied under the lock.
// ---------------------------------------------------------------------------

class RuntimeEngine::ContextImpl final : public Dispatcher::Context {
public:
  ContextImpl(RuntimeEngine& e, ThreadCtx& t) : Context(e, t), runStart_(e.runStart_) {}

  SimTime now() const override {
    const auto d = std::chrono::steady_clock::now() - runStart_;
    return simEpoch() + std::chrono::duration_cast<SimDuration>(d);
  }
  void post(serial::ObjectPtr obj, std::int32_t port) override {
    notePost(obj, port);
    posts.emplace_back(std::move(obj), port);
  }
  void charge(SimDuration) override {} // modeled time is meaningless here
  bool executeKernels() const override { return true; }
  bool allocatePayloads() const override { return true; }
  void marker(std::string_view name, std::int64_t value) override {
    markers.emplace_back(std::string(name), value);
  }

  std::vector<std::pair<serial::ObjectPtr, std::int32_t>> posts;
  std::vector<std::pair<std::string, std::int64_t>> markers;

private:
  std::chrono::steady_clock::time_point runStart_;
};

// ---------------------------------------------------------------------------

RuntimeEngine::RuntimeEngine(RuntimeConfig cfg) : cfg_(std::move(cfg)) {}
RuntimeEngine::~RuntimeEngine() = default;

core::RunResult RuntimeEngine::run(const flow::Program& program) {
  bind(program, cfg_.seed);
  trace_ = cfg_.recordTrace ? std::make_shared<trace::Trace>() : nullptr;
  outstanding_ = 0;
  shuttingDown_ = false;
  const auto nodes = static_cast<std::size_t>(deployment_->nodeCount);
  nodeThreads_.assign(nodes, {});
  for (auto& group : threads_)
    for (ThreadCtx& t : group) nodeThreads_[t.node].push_back(&t);
  nodeCv_ = std::vector<std::condition_variable>(nodes);
  runStart_ = std::chrono::steady_clock::now();

  // Inject inputs, then start one worker per node.
  {
    std::lock_guard<std::mutex> lock(mu_);
    injectInputs(program.inputs);
  }
  std::vector<std::thread> workers;
  workers.reserve(nodes);
  for (flow::NodeId n = 0; n < deployment_->nodeCount; ++n)
    workers.emplace_back([this, n] { workerLoop(n); });

  // Wait for quiescence.
  {
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [this] { return outstanding_ == 0; });
    shuttingDown_ = true;
  }
  for (auto& cv : nodeCv_) cv.notify_all();
  for (auto& w : workers) w.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    checkQuiescent();
  }

  core::RunResult result;
  result.makespan = std::chrono::duration_cast<SimDuration>(
      std::chrono::steady_clock::now() - runStart_);
  result.outputs = std::move(outputs_);
  result.counters = counters_;
  result.trace = trace_;
  result.threadStates = takeThreadStates();
  result.wallSeconds = toSeconds(result.makespan);
  return result;
}

void RuntimeEngine::enqueue(ThreadCtx& t, Task task, bool front) {
  if (front) t.ready.push_front(std::move(task));
  else t.ready.push_back(std::move(task));
  ++outstanding_;
  nodeCv_[t.node].notify_one();
}

void RuntimeEngine::transmit(flow::Envelope env, flow::NodeId, flow::NodeId) {
  ThreadCtx& t = thread(env.dst);
  enqueue(t, Task{flow::StepKind::Input, std::move(env), 0}, false);
}

RuntimeEngine::ThreadCtx* RuntimeEngine::pickTask(flow::NodeId node, Task& task) {
  for (ThreadCtx* t : nodeThreads_[node]) {
    if (t->busy || t->ready.empty()) continue;
    task = std::move(t->ready.front());
    t->ready.pop_front();
    t->busy = true;
    return t;
  }
  return nullptr;
}

void RuntimeEngine::workerLoop(flow::NodeId node) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shuttingDown_) {
    Task task;
    ThreadCtx* t = pickTask(node, task);
    if (t == nullptr) {
      nodeCv_[node].wait(lock);
      continue;
    }
    const Step step = begin(*t, task);
    ContextImpl ctx(*this, *t);

    // Run the body WITHOUT the lock: this is where real kernels execute
    // concurrently across nodes.
    lock.unlock();
    const SimTime bodyStart = ctx.now();
    runBody(step, task, ctx);
    lock.lock();

    end(step, ctx);
    if (trace_) {
      const SimTime bodyEnd = ctx.now();
      trace_->add(trace::StepRecord{node, t->ref, step.act->op, step.kind, bodyStart, bodyEnd,
                                    bodyEnd - bodyStart});
    }
    // Route the collected posts first: they belong to the completed step.
    for (auto& [obj, port] : ctx.posts) send(*step.act, std::move(obj), port);
    for (auto& [name, value] : ctx.markers) {
      if (trace_) trace_->add(trace::MarkerRecord{name, value, ctx.now()});
      if (cfg_.markerHook) cfg_.markerHook(name, value);
    }
    finish(*t, step);
    // The only waiter on this node's condvar is this worker, so only the
    // run's completion needs a wake-up here.
    DPS_CHECK(outstanding_ > 0, "outstanding work underflow");
    if (--outstanding_ == 0) doneCv_.notify_all();
  }
}

} // namespace dps::rt
