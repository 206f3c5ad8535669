#include "svc/request_queue.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::svc {

RequestQueue::RequestQueue(ProfileCache& cache, Options options)
    : cache_(cache), options_(options) {
  DPS_CHECK(options_.capacity >= 1, "request queue needs capacity >= 1");
  DPS_CHECK(options_.ewmaAlpha > 0 && options_.ewmaAlpha <= 1,
            "EWMA smoothing factor must be in (0, 1]");
  if (options_.metrics != nullptr) {
    obsAccepted_ = options_.metrics->counter("svc.queue.accepted");
    obsRejected_ = options_.metrics->counter("svc.queue.rejected");
    obsServed_ = options_.metrics->counter("svc.queue.served");
    obsLatencySec_ = options_.metrics->histogram("svc.queue.latency_sec", obs::secondsBounds());
    obsDepthHighWater_ = options_.metrics->gauge("svc.queue.depth_high_water");
  }
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

RequestQueue::~RequestQueue() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

Admission RequestQueue::submit(sched::EngineRunSpec spec, Completion done) {
  Admission adm;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const std::size_t backlog = queue_.size() + inService_;
    if (backlog >= options_.capacity) {
      ++rejected_;
      obsRejected_.add();
      adm.decision = Admission::Decision::Rejected;
      adm.depth = backlog;
      // Expected seconds until the head of the backlog has cleared enough
      // for a retry to land: the backlog spread over the serving threads
      // (one lane in manual mode), paced at the observed service time.  A
      // cold queue has no observation yet; hint one service slot.
      const double lanes = std::max(1u, options_.workers);
      const double perRequest = ewmaServiceSec_ > 0 ? ewmaServiceSec_ : 1e-3;
      adm.retryAfterSec = perRequest * static_cast<double>(backlog) / lanes;
      return adm;
    }
    queue_.push_back(Request{std::move(spec), std::move(done), clock_.elapsedSec()});
    adm.depth = queue_.size() + inService_;
    obsAccepted_.add();
    if (adm.depth > depthHighWater_) {
      depthHighWater_ = adm.depth;
      obsDepthHighWater_.set(static_cast<double>(depthHighWater_));
    }
  }
  cv_.notify_one();
  return adm;
}

bool RequestQueue::popFront(Request& out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  ++inService_;
  return true;
}

void RequestQueue::serve(Request req) {
  const double startSec = clock_.elapsedSec();
  const sched::EngineRunRecord rec = cache_.run(req.spec);
  const double sec = clock_.elapsedSec() - startSec;
  if (req.done) req.done(rec);
  obsServed_.add();
  obsLatencySec_.observe(clock_.elapsedSec() - req.submitSec);
  {
    std::unique_lock<std::mutex> lock(mu_);
    --inService_;
    ++served_;
    ewmaServiceSec_ = ewmaServiceSec_ == 0
                          ? sec
                          : options_.ewmaAlpha * sec + (1 - options_.ewmaAlpha) * ewmaServiceSec_;
  }
  drained_.notify_all();
}

bool RequestQueue::drainOne() {
  Request req;
  if (!popFront(req)) return false;
  serve(std::move(req));
  return true;
}

void RequestQueue::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return queue_.empty() && inService_ == 0; });
}

void RequestQueue::workerLoop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return; // stopping, backlog drained
      req = std::move(queue_.front());
      queue_.pop_front();
      ++inService_;
    }
    serve(std::move(req));
  }
}

std::size_t RequestQueue::depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size() + inService_;
}

std::uint64_t RequestQueue::served() const {
  std::unique_lock<std::mutex> lock(mu_);
  return served_;
}

std::uint64_t RequestQueue::rejectedCount() const {
  std::unique_lock<std::mutex> lock(mu_);
  return rejected_;
}

double RequestQueue::ewmaServiceSec() const {
  std::unique_lock<std::mutex> lock(mu_);
  return ewmaServiceSec_;
}

} // namespace dps::svc
