// The cluster event loop: the whole simulation as one value type —
// constructed, run, harvested.  Job state and its transitions belong to
// the Machine (machine.hpp); ClusterLoop fires one transition per DES
// event and posts the next at the tick it set.  What it adds: the policy
// driver (admission verdicts, EASY backfill, boundary targets), wait
// attribution, the recorder tap, and two accelerators whose
// per-event cost does not grow with the job count — a lazily compacted
// queue and an ordered estimated-finish index over the running jobs.
#include "sched/cluster.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "des/scheduler.hpp"
#include "obs/recorder.hpp"
#include "sched/machine.hpp"
#include "sched/observe.hpp"
#include "support/error.hpp"

namespace dps::sched {

void ClusterConfig::check(const JobProfileTable& profiles) const {
  DPS_CHECK(nodes > 0, "cluster needs at least one node");
  DPS_CHECK(migrationBandwidthBytesPerSec > 0, "migration bandwidth must be positive");
  for (std::size_t c = 0; c < profiles.classCount(); ++c)
    DPS_CHECK(profiles.of(c).maxNodes() <= nodes,
              "job class " + profiles.of(c).name + " cannot fit the cluster");
}

namespace {

/// What the loop keeps per job beside the Machine's JobState.
struct JobRt {
  /// Profile-estimated finish assuming the current allocation holds —
  /// the running-job knowledge EASY backfill reserves against.
  double estFinishSec = 0;
  /// Wait attribution (integer SimTime ticks, so buckets telescope to
  /// exactly start - arrival): the tick the job's current wait interval
  /// opened, and that interval's reason.
  std::int64_t waitSinceNs = 0;
  obs::WaitReason waitReason = obs::WaitReason::HeadOfLine;
  JobOutcome out;
};

class ClusterLoop {
public:
  ClusterLoop(const ClusterConfig& cfg, const Workload& workload, const JobProfileTable& profiles,
              Policy& policy)
      : cfg_(cfg),
        workload_(workload),
        policy_(policy),
        m_(cfg, workload, profiles),
        st_(m_.initial()),
        finishEntry_(workload.jobs.size()) {
    jobs_.resize(workload.jobs.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) jobs_[i].out = m_.outcome(i);
  }

  ClusterMetrics run() {
    if (cfg_.recorder != nullptr)
      cfg_.recorder->beginRun(policy_.name(), cfg_.nodes, workload_.cfg.seed);
    metrics_.timeline.push_back(UtilizationPoint{0.0, 0});
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      post(m_.arrivalNs(i), [this, i] { onArrival(i); });
    sched_.run();

    metrics_.policy = policy_.name();
    metrics_.nodes = cfg_.nodes;
    metrics_.seed = workload_.cfg.seed;
    metrics_.events = events_;
    DPS_CHECK(m_.allFinished(st_), "cluster simulation quiesced with unfinished jobs");
    for (JobRt& rt : jobs_) metrics_.jobs.push_back(std::move(rt.out));
    metrics_.finalize();
    recordClusterRun(cfg_, metrics_, sched_.firedCount(), sched_.queueHighWater());
    return std::move(metrics_);
  }

private:
  /// A started job's queue entry: the head pops it on contact, the backfill
  /// walk steps over it, so starting a job never erases mid-deque.
  static constexpr std::size_t kStarted = std::numeric_limits<std::size_t>::max();
  /// The finish index orders the running jobs by (estimated finish, nodes);
  /// the job index is a deterministic tiebreak, and equal-key jobs
  /// contribute identically to the shadow-time accumulation.
  using FinishKey = std::tuple<double, std::int32_t, std::size_t>;
  using FinishIndex = std::multiset<FinishKey>;

  double nowSec() const { return toSeconds(sched_.now().time_since_epoch()); }

  /// Brings the Machine's clock to the firing event's tick.
  void sync() { st_.nowNs = sched_.now().time_since_epoch().count(); }

  /// Posts `action` at the absolute tick a transition set.
  void post(std::int64_t ns, des::Scheduler::Action action) {
    sched_.scheduleAt(simEpoch() + nanoseconds(ns), std::move(action));
  }

  const ClassProfile& profileOf(std::size_t i) const { return *m_.tab(i).profile; }

  ClusterView view() const {
    ClusterView v;
    v.totalNodes = cfg_.nodes;
    v.freeNodes = st_.free;
    v.runningJobs = st_.running;
    v.queuedJobs = st_.queued;
    return v;
  }

  /// The oldest queued job, popping started entries off the front.
  std::size_t queueHead() {
    while (queue_.front() == kStarted) queue_.pop_front();
    return queue_.front();
  }

  void recordUse() {
    metrics_.recordUse(nowSec(), cfg_.nodes - st_.free);
    recordState();
  }

  /// Feeds the recorder's timeseries after any cluster state change (also
  /// called on arrivals, where only the queue depth moves).
  void recordState() {
    if (cfg_.recorder != nullptr)
      cfg_.recorder->stateSample(nowSec(), cfg_.nodes - st_.free, st_.free, st_.running,
                                 st_.queued);
  }

  /// Closes job i's open wait interval at `t` (no-op when zero-length):
  /// banks the integer-ns bucket and hands the interval to the recorder.
  void closeWait(JobRt& rt, std::int64_t t) {
    if (t <= rt.waitSinceNs) return;
    rt.out.wait.byReason[static_cast<std::size_t>(rt.waitReason)] += t - rt.waitSinceNs;
    if (cfg_.recorder != nullptr)
      cfg_.recorder->waitInterval(rt.out.id, rt.waitSinceNs, t, rt.waitReason);
  }

  /// Re-attributes job i's wait from now on: a changed reason closes the
  /// open interval and opens a new one; the same reason lets it run on.
  void markWait(std::size_t i, obs::WaitReason reason) {
    JobRt& rt = jobs_[i];
    if (reason == rt.waitReason) return;
    closeWait(rt, st_.nowNs);
    rt.waitSinceNs = st_.nowNs;
    rt.waitReason = reason;
  }

  /// Seals job i's attribution at start: closes the last interval under
  /// its standing reason.  Telescoping makes the invariant exact:
  /// sum(byReason) == totalNs == start tick - arrival tick.
  void closeWaitFinal(std::size_t i) {
    JobRt& rt = jobs_[i];
    closeWait(rt, st_.nowNs);
    rt.out.wait.totalNs = st_.nowNs - m_.arrivalNs(i);
  }

  /// Re-registers job i in the finish index under its current
  /// (estFinishSec, nodes); call after either changes.  Only backfill
  /// reads the index, so without it there is nothing to maintain.
  void updateFinishIndex(std::size_t i) {
    if (!cfg_.easyBackfill) return;
    dropFinishIndex(i);
    finishEntry_[i] = byFinish_.insert(FinishKey{jobs_[i].estFinishSec, st_.jobs[i].alloc, i});
  }

  void dropFinishIndex(std::size_t i) {
    std::optional<FinishIndex::iterator>& at = finishEntry_[i];
    if (!at) return;
    byFinish_.erase(*at);
    at.reset();
  }

  void maybeProgress() {
    if (cfg_.progressEvery <= 0 || !cfg_.onProgress) return;
    if (events_ - lastProgressEvents_ < cfg_.progressEvery) return;
    lastProgressEvents_ = events_;
    ClusterProgress p;
    p.events = events_;
    p.finishedJobs = static_cast<std::int32_t>(st_.finished);
    p.totalJobs = static_cast<std::int32_t>(jobs_.size());
    p.simNowSec = nowSec();
    p.runningJobs = st_.running;
    p.queuedJobs = st_.queued;
    cfg_.onProgress(p);
  }

  void onArrival(std::size_t i) {
    ++events_;
    sync();
    m_.arrive(st_, i);
    jobs_[i].waitSinceNs = st_.nowNs;
    queue_.push_back(i);
    recordState();
    admissionScan();
    maybeProgress();
  }

  /// One offer of queued job i to the policy: what it asks for, the
  /// feasible allocation that grants (0 when the policy holds the job),
  /// and why the job cannot start now — HeadOfLine when it can.
  struct Offer {
    std::int32_t want = 0;
    std::int32_t alloc = 0;
    obs::WaitReason held = obs::WaitReason::HeadOfLine;
    DecisionContext ctx;
  };

  Offer offer(std::size_t i, const ClassProfile& profile) {
    QueuedJobView qv;
    qv.id = jobs_[i].out.id;
    qv.waitedSec = nowSec() - jobs_[i].out.arrivalSec;
    Offer o;
    o.want = policy_.admit(qv, profile, view(), o.ctx);
    if (o.want <= 0) {
      o.held = obs::WaitReason::PolicyHeld;
      return o;
    }
    o.alloc = profile.clampFeasible(std::min(o.want, profile.maxNodes()));
    if (o.alloc > st_.free) o.held = obs::WaitReason::InsufficientFree;
    return o;
  }

  /// Offers queued jobs to the policy strictly in arrival order; stops at
  /// the first one that does not start.  With EASY backfill enabled, a
  /// capacity-blocked head additionally triggers a backfill pass over the
  /// younger queued jobs.
  void admissionScan() {
    while (st_.queued > 0) {
      const std::size_t i = queueHead();
      const Offer o = offer(i, profileOf(i));
      const bool starts = o.held == obs::WaitReason::HeadOfLine;
      if (!starts) markWait(i, o.held);
      if (cfg_.recorder != nullptr)
        cfg_.recorder->admitDecision(nowSec(), jobs_[i].out.id, o.want, o.alloc, st_.free, starts,
                                     o.held, o.ctx.rule, o.ctx.score, o.ctx.threshold);
      if (!starts) {
        if (o.held == obs::WaitReason::InsufficientFree && cfg_.easyBackfill)
          backfillScan(i, o.alloc);
        return;
      }
      queue_.pop_front();
      startJob(i, o.alloc);
    }
  }

  /// EASY backfill (Lifka '95): the blocked head holds a reservation of
  /// `headAlloc` nodes at the *shadow time* — the earliest instant enough
  /// nodes are free assuming running jobs keep their allocations and finish
  /// per their remaining phase profiles.  A younger job may start now only
  /// if it cannot delay that reservation: it finishes before the shadow
  /// time, or it fits into the `spare` nodes left over once the head
  /// starts.
  void backfillScan(std::size_t head, std::int32_t headAlloc) {
    const double now = nowSec();
    std::int32_t avail = st_.free;
    double shadow = -1;
    std::int32_t spare = 0;
    for (const auto& [finish, nodes, running] : byFinish_) {
      avail += nodes;
      if (avail < headAlloc) continue;
      shadow = std::max(finish, now);
      spare = avail - headAlloc;
      break;
    }
    if (shadow < 0) { // the head can never fit; nothing to reserve
      if (cfg_.recorder != nullptr)
        cfg_.recorder->backfillPass(now, jobs_[head].out.id, headAlloc, -1, 0, 0, 0);
      return;
    }
    const std::int32_t spare0 = spare;

    std::int32_t considered = 0;
    std::int32_t started = 0;
    // The head sits at the front; walk the live entries behind it.
    for (std::size_t pos = 1; pos < queue_.size(); ++pos) {
      const std::size_t i = queue_[pos];
      if (i == kStarted) continue;
      if (cfg_.backfillDepth > 0 && considered >= cfg_.backfillDepth) {
        // Only this first excluded candidate is re-attributed (O(1) per
        // pass); deeper jobs stay head-of-line — the scan was never going
        // to reach them anyway.
        markWait(i, obs::WaitReason::DepthCutoff);
        if (cfg_.recorder != nullptr) cfg_.recorder->depthCutoff(now, jobs_[i].out.id);
        break;
      }
      ++considered;
      const ClassProfile& profile = profileOf(i);
      Offer o = offer(i, profile);
      const bool finishesInTime = o.held == obs::WaitReason::HeadOfLine &&
                                  now + profile.at(o.alloc).totalSec <= shadow + 1e-9;
      if (o.held == obs::WaitReason::HeadOfLine && !finishesInTime && o.alloc > spare)
        o.held = obs::WaitReason::ShadowTime;
      const bool starts = o.held == obs::WaitReason::HeadOfLine;
      if (!starts) markWait(i, o.held);
      if (cfg_.recorder != nullptr)
        cfg_.recorder->backfillCandidate(now, jobs_[i].out.id, o.want, o.alloc, st_.free, spare,
                                         starts, o.held, o.ctx.rule, o.ctx.score,
                                         o.ctx.threshold);
      if (!starts) continue;
      if (!finishesInTime) spare -= o.alloc; // occupies part of the surplus past the shadow
      queue_[pos] = kStarted;
      jobs_[i].out.backfilled = true;
      ++started;
      startJob(i, o.alloc);
    }
    if (cfg_.recorder != nullptr)
      cfg_.recorder->backfillPass(now, jobs_[head].out.id, headAlloc, shadow, spare0, considered,
                                  started);
  }

  void startJob(std::size_t i, std::int32_t alloc) {
    JobRt& rt = jobs_[i];
    closeWaitFinal(i);
    m_.applyStart(st_, i, alloc);
    rt.out.startSec = nowSec();
    recordUse();
    beginPhase(i);
  }

  /// Job i's next phase began: banks its allocation, refreshes its
  /// estimated finish and posts the phase end the Machine set.
  void beginPhase(std::size_t i) {
    const JobState& js = st_.jobs[i];
    JobRt& rt = jobs_[i];
    rt.out.allocs.push_back(js.alloc);
    rt.estFinishSec = nowSec() + profileOf(i).at(js.alloc).remainingFrom(js.phase);
    updateFinishIndex(i);
    post(js.nextNs, [this, i] { onPhaseEnd(i); });
  }

  void onMigrationEnd(std::size_t i) {
    sync();
    m_.endMigration(st_, i);
    beginPhase(i);
  }

  void onPhaseEnd(std::size_t i) {
    ++events_;
    sync();
    JobRt& rt = jobs_[i];
    if (m_.endPhase(st_, i)) {
      rt.out.finishSec = nowSec();
      dropFinishIndex(i);
      recordUse();
      admissionScan();
      maybeProgress();
      return;
    }

    const JobState& js = st_.jobs[i];
    const std::int32_t from = js.alloc;
    const std::int32_t free = st_.free;
    const ClassProfile& profile = profileOf(i);
    RunningJobView rv;
    rv.id = rt.out.id;
    rv.nodes = from;
    rv.phase = js.phase;
    rv.phases = profile.phases();
    rv.efficiencyNext = profile.at(from).phaseEff[static_cast<std::size_t>(js.phase)];
    DecisionContext ctx;
    std::int32_t target = profile.clampFeasible(policy_.reallocate(rv, profile, view(), ctx));
    if (target > from) // growth comes out of currently free nodes only
      target = std::min(target, profile.clampFeasible(from + free));

    double bytes = 0;
    std::int64_t delayNs = 0;
    m_.applyBoundary(st_, i, target, &bytes, &delayNs);
    if (target != from) {
      if (cfg_.recorder != nullptr)
        cfg_.recorder->reallocDecision(nowSec(), rt.out.id, from, target, free, bytes, ctx.rule,
                                       ctx.score, ctx.threshold);
      rt.out.reallocations++;
      rt.out.migratedBytes += bytes;
      // The admission pass below sees this job at its new allocation with
      // its estimated finish not yet refreshed (beginPhase refreshes it
      // after the migration delay).
      updateFinishIndex(i);
      recordUse();
      admissionScan(); // shrink may have freed capacity for the queue
    }
    if (js.st == JobSt::Migrating) {
      const SimDuration delay = nanoseconds(delayNs);
      rt.out.wait.migrationDelayNs += delayNs;
      if (cfg_.recorder != nullptr)
        cfg_.recorder->migrationDelay(nowSec(), rt.out.id, toSeconds(delay), bytes);
      rt.estFinishSec =
          nowSec() + toSeconds(delay) + profile.at(target).remainingFrom(js.phase);
      updateFinishIndex(i);
      post(js.nextNs, [this, i] { onMigrationEnd(i); });
    } else {
      beginPhase(i);
    }
    maybeProgress();
  }

  const ClusterConfig& cfg_;
  const Workload& workload_;
  Policy& policy_;
  /// Every job's transitions go through the Machine, on `st_`.
  const Machine m_;
  MachineState st_;

  des::Scheduler sched_;
  /// Queued jobs in arrival order, started ones marked kStarted in place;
  /// st_.queued counts the live entries.
  std::deque<std::size_t> queue_;
  /// Running jobs by estimated finish (maintained only under backfill),
  /// and each job's entry in it.
  FinishIndex byFinish_;
  std::vector<std::optional<FinishIndex::iterator>> finishEntry_;
  std::vector<JobRt> jobs_;
  std::int64_t events_ = 0;
  std::int64_t lastProgressEvents_ = 0;
  ClusterMetrics metrics_;
};

} // namespace

ClusterMetrics simulateCluster(const ClusterConfig& cfg, const Workload& workload,
                               const JobProfileTable& profiles, Policy& policy) {
  return ClusterLoop(cfg, workload, profiles, policy).run();
}

} // namespace dps::sched
