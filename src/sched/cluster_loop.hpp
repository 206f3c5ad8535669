// The cluster event loop, written once over its hot-path data structures.
//
// ClusterLoop<Accel> is the whole simulation as one value type:
// constructed, run, harvested.  Every semantic step — admission verdicts,
// EASY backfill, wait attribution, recorder and trace emission, phase
// boundaries, reallocation and migration — lives here.  The template
// parameter supplies only the three structures whose cost grows with the
// job count:
//
//   Accel::Queue        live queued jobs in arrival order, with a cursor
//                       walk behind the head that can remove entries;
//   Accel::FinishOrder  the running jobs ascending by (estimated finish,
//                       nodes), walked for the EASY shadow time;
//   Accel::remaining    the profiled runtime of phases [phase, end).
//
// simulateCluster (cluster.cpp) instantiates it with indexed structures
// whose per-event cost is O(1)/O(log n); simulateClusterReference
// (cluster_reference.cpp) with the original linear scans.  Tests pin the
// two bit-for-bit, so the linear scans are the specification the indexed
// structures must meet.  Private to src/sched/.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sched/cluster.hpp"
#include "sched/observe.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace dps::sched::detail {

/// One job's run state.
struct JobRt {
  std::int32_t nodes = 0; // current allocation (0 = not running)
  std::int32_t phase = 0; // next phase index
  bool finished = false;
  /// Profile-estimated finish assuming the current allocation holds —
  /// the running-job knowledge EASY backfill reserves against.
  double estFinishSec = 0;
  /// &profile.at(nodes) while running.
  const PhaseProfile* prof = nullptr;
  /// Wait attribution (integer SimTime ticks, so buckets telescope to
  /// exactly start - arrival): the tick the job arrived, the tick its
  /// current wait interval opened, and that interval's reason.
  std::int64_t arrivalNs = 0;
  std::int64_t waitSinceNs = 0;
  obs::WaitReason waitReason = obs::WaitReason::HeadOfLine;
  JobOutcome out;
};

template <class Accel>
class ClusterLoop {
public:
  ClusterLoop(const ClusterConfig& cfg, const Workload& workload, const JobProfileTable& profiles,
              Policy& policy)
      : cfg_(cfg),
        workload_(workload),
        profiles_(profiles),
        policy_(policy),
        byFinish_(workload.jobs.size()) {
    DPS_CHECK(cfg_.nodes > 0, "cluster needs at least one node");
    DPS_CHECK(cfg_.migrationBandwidthBytesPerSec > 0, "migration bandwidth must be positive");
    free_ = cfg_.nodes;
    jobs_.resize(workload.jobs.size());
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const Job& job = workload.jobs[i];
      const ClassProfile& profile = profiles_.of(job.klass);
      DPS_CHECK(profile.maxNodes() <= cfg_.nodes,
                "job class " + profile.name + " cannot fit the cluster");
      JobRt& rt = jobs_[i];
      rt.out.id = job.id;
      rt.out.klass = profile.name;
      rt.out.arrivalSec = job.arrivalSec;
      rt.out.bestSec = profile.bestSec();
    }
  }

  ClusterMetrics run() {
    if (cfg_.recorder != nullptr)
      cfg_.recorder->beginRun(policy_.name(), cfg_.nodes, workload_.cfg.seed);
    metrics_.timeline.push_back(UtilizationPoint{0.0, 0});
    for (std::size_t i = 0; i < workload_.jobs.size(); ++i)
      sched_.scheduleAt(simEpoch() + seconds(workload_.jobs[i].arrivalSec),
                        [this, i] { onArrival(i); });
    sched_.run();

    metrics_.policy = policy_.name();
    metrics_.nodes = cfg_.nodes;
    metrics_.seed = workload_.cfg.seed;
    metrics_.events = events_;
    for (JobRt& rt : jobs_) {
      DPS_CHECK(rt.finished, "cluster simulation quiesced with unfinished jobs");
      metrics_.jobs.push_back(std::move(rt.out));
    }
    metrics_.finalize();
    recordClusterRun(cfg_, metrics_, sched_.firedCount(), sched_.queueHighWater());
    return std::move(metrics_);
  }

private:
  double nowSec() const { return toSeconds(sched_.now().time_since_epoch()); }
  std::int64_t nowNs() const { return sched_.now().time_since_epoch().count(); }

  const ClassProfile& profileOf(std::size_t i) const {
    return profiles_.of(workload_.jobs[i].klass);
  }

  ClusterView view() const {
    ClusterView v;
    v.totalNodes = cfg_.nodes;
    v.freeNodes = free_;
    v.runningJobs = running_;
    v.queuedJobs = queue_.size();
    return v;
  }

  void recordUse() {
    metrics_.recordUse(nowSec(), cfg_.nodes - free_);
    recordState();
  }

  /// Feeds the recorder's timeseries after any cluster state change (also
  /// called on arrivals, where only the queue depth moves).
  void recordState() {
    if (cfg_.recorder != nullptr)
      cfg_.recorder->stateSample(nowSec(), cfg_.nodes - free_, free_, running_, queue_.size());
  }

  /// Closes job i's open wait interval at `t` (no-op when zero-length):
  /// banks the integer-ns bucket, hands the interval to the recorder, and
  /// emits the trace child span under the job's queued span.
  void closeWait(JobRt& rt, std::int64_t t) {
    if (t <= rt.waitSinceNs) return;
    rt.out.wait.byReason[static_cast<std::size_t>(rt.waitReason)] += t - rt.waitSinceNs;
    if (cfg_.recorder != nullptr)
      cfg_.recorder->waitInterval(rt.out.id, static_cast<double>(rt.waitSinceNs) * 1e-9,
                                  static_cast<double>(t) * 1e-9, rt.waitReason);
    if (cfg_.trace != nullptr)
      cfg_.trace->completeSpan(obs::waitReasonName(rt.waitReason), "wait",
                               static_cast<double>(rt.waitSinceNs) * 1e-3,
                               static_cast<double>(t - rt.waitSinceNs) * 1e-3, cfg_.tracePid,
                               rt.out.id);
  }

  /// Re-attributes job i's wait from now on: a changed reason closes the
  /// open interval and opens a new one; the same reason lets it run on.
  void markWait(std::size_t i, obs::WaitReason reason) {
    JobRt& rt = jobs_[i];
    if (reason == rt.waitReason) return;
    const std::int64_t t = nowNs();
    closeWait(rt, t);
    rt.waitSinceNs = t;
    rt.waitReason = reason;
  }

  /// Seals job i's attribution at start: closes the last interval under
  /// its standing reason.  Telescoping makes the invariant exact:
  /// sum(byReason) == totalNs == start tick - arrival tick.
  void closeWaitFinal(std::size_t i) {
    JobRt& rt = jobs_[i];
    const std::int64_t t = nowNs();
    closeWait(rt, t);
    rt.out.wait.totalNs = t - rt.arrivalNs;
  }

  /// Re-registers job i in the finish order under its current
  /// (estFinishSec, nodes); call after either changes.  Only backfill
  /// reads the order, so without it there is nothing to maintain.
  void updateFinishOrder(std::size_t i) {
    if (cfg_.easyBackfill) byFinish_.update(i, jobs_[i]);
  }

  /// Trace emission (simulated-time microseconds, one tid per job id).
  /// Everything below only *reads* run state — tracing on or off cannot
  /// change a single scheduling decision.
  double nowMicros() const { return nowSec() * 1e6; }

  void traceQueuedSpan(const JobRt& rt, std::int32_t alloc) const {
    cfg_.trace->completeSpan("queued", "queue", rt.out.arrivalSec * 1e6, rt.out.waitSec() * 1e6,
                             cfg_.tracePid, rt.out.id,
                             "{\"alloc\":" + std::to_string(alloc) + "}");
  }

  void traceRunSpan(const JobRt& rt) const {
    cfg_.trace->completeSpan(rt.out.klass, "job", rt.out.startSec * 1e6,
                             (rt.out.finishSec - rt.out.startSec) * 1e6, cfg_.tracePid, rt.out.id,
                             "{\"reallocations\":" + std::to_string(rt.out.reallocations) +
                                 ",\"migrated_bytes\":" + jsonDouble(rt.out.migratedBytes) +
                                 ",\"backfilled\":" + (rt.out.backfilled ? "true" : "false") + "}");
  }

  void traceRealloc(const JobRt& rt, std::int32_t from, std::int32_t to, double bytes) const {
    cfg_.trace->instant("realloc", "job", nowMicros(), cfg_.tracePid, rt.out.id,
                        "{\"from\":" + std::to_string(from) + ",\"to\":" + std::to_string(to) +
                            ",\"bytes\":" + jsonDouble(bytes) + "}");
  }

  void traceMigration(const JobRt& rt, const SimDuration& delay, double bytes) const {
    cfg_.trace->completeSpan("migrate", "job", nowMicros(), toSeconds(delay) * 1e6, cfg_.tracePid,
                             rt.out.id, "{\"bytes\":" + jsonDouble(bytes) + "}");
  }

  void traceBackfill(const JobRt& rt, std::int32_t alloc, double shadow,
                     std::int32_t spare) const {
    cfg_.trace->instant("backfill", "sched", nowMicros(), cfg_.tracePid, rt.out.id,
                        "{\"alloc\":" + std::to_string(alloc) +
                            ",\"shadow_sec\":" + jsonDouble(shadow) +
                            ",\"spare\":" + std::to_string(spare) + "}");
  }

  void maybeProgress() {
    if (cfg_.progressEvery <= 0 || !cfg_.onProgress) return;
    if (events_ - lastProgressEvents_ < cfg_.progressEvery) return;
    lastProgressEvents_ = events_;
    ClusterProgress p;
    p.events = events_;
    p.finishedJobs = finished_;
    p.totalJobs = static_cast<std::int32_t>(jobs_.size());
    p.simNowSec = nowSec();
    p.runningJobs = running_;
    p.queuedJobs = queue_.size();
    cfg_.onProgress(p);
  }

  void onArrival(std::size_t i) {
    ++events_;
    JobRt& rt = jobs_[i];
    rt.arrivalNs = rt.waitSinceNs = nowNs();
    rt.waitReason = obs::WaitReason::HeadOfLine;
    queue_.push(i);
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
    if (o.alloc > free_) o.held = obs::WaitReason::InsufficientFree;
    return o;
  }

  /// Offers queued jobs to the policy strictly in arrival order; stops at
  /// the first one that does not start.  With EASY backfill enabled, a
  /// capacity-blocked head additionally triggers a backfill pass over the
  /// younger queued jobs.
  void admissionScan() {
    while (queue_.size() > 0) {
      const std::size_t i = queue_.head();
      const Offer o = offer(i, profileOf(i));
      const bool starts = o.held == obs::WaitReason::HeadOfLine;
      if (!starts) markWait(i, o.held);
      if (cfg_.recorder != nullptr)
        cfg_.recorder->admitDecision(nowSec(), jobs_[i].out.id, o.want, o.alloc, free_, starts,
                                     o.held, o.ctx.rule, o.ctx.score, o.ctx.threshold);
      if (!starts) {
        if (o.held == obs::WaitReason::InsufficientFree && cfg_.easyBackfill)
          backfillScan(i, o.alloc);
        return;
      }
      queue_.popHead();
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
    std::int32_t avail = free_;
    double shadow = -1;
    std::int32_t spare = 0;
    byFinish_.walk(jobs_, [&](double finish, std::int32_t nodes) {
      avail += nodes;
      if (avail < headAlloc) return false;
      shadow = std::max(finish, now);
      spare = avail - headAlloc;
      return true;
    });
    if (shadow < 0) { // the head can never fit; nothing to reserve
      if (cfg_.recorder != nullptr)
        cfg_.recorder->backfillPass(now, jobs_[head].out.id, headAlloc, -1, 0, 0, 0);
      return;
    }
    const std::int32_t spare0 = spare;

    std::int32_t considered = 0;
    std::int32_t started = 0;
    for (std::size_t pos = queue_.behindHead(); !queue_.done(pos);) {
      const std::size_t i = queue_.at(pos);
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
        cfg_.recorder->backfillCandidate(now, jobs_[i].out.id, o.want, o.alloc, free_, spare,
                                         starts, o.held, o.ctx.rule, o.ctx.score,
                                         o.ctx.threshold);
      if (!starts) {
        pos = queue_.skip(pos);
        continue;
      }
      if (!finishesInTime) spare -= o.alloc; // occupies part of the surplus past the shadow
      pos = queue_.take(pos);
      jobs_[i].out.backfilled = true;
      ++started;
      if (cfg_.trace != nullptr) traceBackfill(jobs_[i], o.alloc, shadow, spare);
      startJob(i, o.alloc);
    }
    if (cfg_.recorder != nullptr)
      cfg_.recorder->backfillPass(now, jobs_[head].out.id, headAlloc, shadow, spare0, considered,
                                  started);
  }

  void startJob(std::size_t i, std::int32_t alloc) {
    JobRt& rt = jobs_[i];
    closeWaitFinal(i);
    free_ -= alloc;
    ++running_;
    rt.nodes = alloc;
    rt.prof = &profileOf(i).at(alloc);
    rt.out.startSec = nowSec();
    if (cfg_.trace != nullptr) traceQueuedSpan(rt, alloc);
    recordUse();
    schedulePhase(i);
  }

  void schedulePhase(std::size_t i) {
    JobRt& rt = jobs_[i];
    rt.out.allocs.push_back(rt.nodes);
    rt.estFinishSec = nowSec() + Accel::remaining(*rt.prof, rt.phase);
    updateFinishOrder(i);
    sched_.scheduleAfter(seconds(rt.prof->phaseSec[static_cast<std::size_t>(rt.phase)]),
                         [this, i] { onPhaseEnd(i); });
  }

  void onPhaseEnd(std::size_t i) {
    ++events_;
    JobRt& rt = jobs_[i];
    const ClassProfile& profile = profileOf(i);
    ++rt.phase;
    if (rt.phase >= profile.phases()) {
      free_ += rt.nodes;
      --running_;
      ++finished_;
      rt.nodes = 0;
      rt.prof = nullptr;
      rt.finished = true;
      rt.out.finishSec = nowSec();
      if (cfg_.trace != nullptr) traceRunSpan(rt);
      byFinish_.drop(i);
      recordUse();
      admissionScan();
      maybeProgress();
      return;
    }

    RunningJobView rv;
    rv.id = rt.out.id;
    rv.nodes = rt.nodes;
    rv.phase = rt.phase;
    rv.phases = profile.phases();
    rv.efficiencyNext = rt.prof->phaseEff[static_cast<std::size_t>(rt.phase)];
    DecisionContext ctx;
    std::int32_t target = profile.clampFeasible(policy_.reallocate(rv, profile, view(), ctx));
    if (target > rt.nodes) // growth comes out of currently free nodes only
      target = std::min(target, profile.clampFeasible(rt.nodes + free_));

    if (target == rt.nodes) {
      schedulePhase(i);
      maybeProgress();
      return;
    }
    const double bytes = profile.migrationBytes(rt.phase, rt.nodes, target);
    if (cfg_.recorder != nullptr)
      cfg_.recorder->reallocDecision(nowSec(), rt.out.id, rt.nodes, target, free_, bytes, ctx.rule,
                                     ctx.score, ctx.threshold);
    if (cfg_.trace != nullptr) traceRealloc(rt, rt.nodes, target, bytes);
    if (target < rt.nodes) {
      free_ += rt.nodes - target; // released nodes stop computing now
    } else {
      free_ -= target - rt.nodes;
    }
    rt.nodes = target;
    rt.prof = &profile.at(target);
    rt.out.reallocations++;
    rt.out.migratedBytes += bytes;
    // The admission pass below sees this job at its new allocation with
    // its estimated finish not yet refreshed (schedulePhase refreshes it
    // after the migration delay).
    updateFinishOrder(i);
    recordUse();
    admissionScan(); // shrink may have freed capacity for the queue
    if (cfg_.chargeMigration) {
      const SimDuration delay =
          cfg_.migrationLatency + seconds(bytes / cfg_.migrationBandwidthBytesPerSec);
      rt.out.wait.migrationDelayNs += delay.count();
      if (cfg_.recorder != nullptr)
        cfg_.recorder->migrationDelay(nowSec(), rt.out.id, toSeconds(delay), bytes);
      if (cfg_.trace != nullptr) traceMigration(rt, delay, bytes);
      rt.estFinishSec = nowSec() + toSeconds(delay) + Accel::remaining(*rt.prof, rt.phase);
      updateFinishOrder(i);
      sched_.scheduleAfter(delay, [this, i] { schedulePhase(i); });
    } else {
      schedulePhase(i);
    }
    maybeProgress();
  }

  const ClusterConfig& cfg_;
  const Workload& workload_;
  const JobProfileTable& profiles_;
  Policy& policy_;

  des::Scheduler sched_;
  typename Accel::Queue queue_;
  typename Accel::FinishOrder byFinish_;
  std::vector<JobRt> jobs_;
  std::int32_t free_ = 0;
  std::int32_t running_ = 0;
  std::int32_t finished_ = 0;
  std::int64_t events_ = 0;
  std::int64_t lastProgressEvents_ = 0;
  ClusterMetrics metrics_;
};

} // namespace dps::sched::detail
