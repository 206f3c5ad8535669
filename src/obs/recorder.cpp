#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace dps::obs {

const char* waitReasonName(WaitReason r) {
  switch (r) {
    case WaitReason::HeadOfLine: return "head_of_line";
    case WaitReason::InsufficientFree: return "insufficient_free";
    case WaitReason::PolicyHeld: return "policy_held";
    case WaitReason::DepthCutoff: return "depth_cutoff";
    case WaitReason::ShadowTime: return "shadow_time";
  }
  return "unknown";
}

const char* waitReasonLabel(WaitReason r) {
  switch (r) {
    case WaitReason::HeadOfLine: return "head-of-line blocked";
    case WaitReason::InsufficientFree: return "insufficient free nodes";
    case WaitReason::PolicyHeld: return "held by policy";
    case WaitReason::DepthCutoff: return "backfill-depth cutoff";
    case WaitReason::ShadowTime: return "shadow-time violation";
  }
  return "unknown";
}

WaitReason WaitAttribution::dominant() const {
  std::size_t best = 0;
  for (std::size_t r = 1; r < kWaitReasonCount; ++r)
    if (byReason[r] > byReason[best]) best = r;
  return static_cast<WaitReason>(best);
}

double WaitAttribution::dominantShare() const {
  if (totalNs <= 0) return 0;
  return static_cast<double>(byReason[static_cast<std::size_t>(dominant())]) /
         static_cast<double>(totalNs);
}

namespace {

/// Fixed-point seconds for narratives (JSON keeps full %.17g precision).
std::string sec3(double s) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

/// Integer simulated nanoseconds as seconds.
double nsToSec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string mb(double bytes) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  return buf;
}

} // namespace

Recorder::Recorder(double timeseriesCadenceSec) : cadenceSec_(timeseriesCadenceSec) {
  DPS_CHECK(timeseriesCadenceSec >= 0, "recorder timeseries cadence must be >= 0");
}

void Recorder::beginRun(const std::string& policy, std::int32_t nodes, std::uint64_t seed) {
  policy_ = policy;
  nodes_ = nodes;
  seed_ = seed;
  makespanSec_ = 0;
  decisions_.clear();
  intervals_.clear();
  jobs_.clear();
  tsSec_.clear();
  tsUsed_.clear();
  tsFree_.clear();
  tsRunning_.clear();
  tsQueued_.clear();
  used_ = running_ = queued_ = 0;
  free_ = nodes;
  nextSample_ = 0;
}

void Recorder::admitDecision(double tSec, std::int32_t job, std::int32_t want, std::int32_t alloc,
                             std::int32_t freeNodes, bool started, WaitReason denial,
                             const char* rule, double score, double threshold) {
  decisions_.push_back(Decision{.kind = Kind::Admit, .tSec = tSec, .job = job, .want = want,
                                .alloc = alloc, .freeNodes = freeNodes, .started = started,
                                .reason = denial, .rule = rule, .score = score,
                                .threshold = threshold});
}

void Recorder::backfillCandidate(double tSec, std::int32_t job, std::int32_t want,
                                 std::int32_t alloc, std::int32_t freeNodes, std::int32_t spare,
                                 bool started, WaitReason denial, const char* rule, double score,
                                 double threshold) {
  decisions_.push_back(Decision{.kind = Kind::Candidate, .tSec = tSec, .job = job, .want = want,
                                .alloc = alloc, .freeNodes = freeNodes, .spare = spare,
                                .started = started, .reason = denial, .rule = rule,
                                .score = score, .threshold = threshold});
}

void Recorder::depthCutoff(double tSec, std::int32_t job) {
  decisions_.push_back(
      Decision{.kind = Kind::Cutoff, .tSec = tSec, .job = job, .reason = WaitReason::DepthCutoff});
}

void Recorder::backfillPass(double tSec, std::int32_t headJob, std::int32_t headAlloc,
                            double shadowSec, std::int32_t spare, std::int32_t considered,
                            std::int32_t started) {
  decisions_.push_back(Decision{.kind = Kind::Pass, .tSec = tSec, .job = headJob,
                                .alloc = headAlloc, .spare = spare, .considered = considered,
                                .startedCount = started, .shadowSec = shadowSec});
}

void Recorder::reallocDecision(double tSec, std::int32_t job, std::int32_t fromNodes,
                               std::int32_t toNodes, std::int32_t freeNodes, double bytes,
                               const char* rule, double score, double threshold) {
  decisions_.push_back(Decision{.kind = Kind::Realloc, .tSec = tSec, .job = job,
                                .freeNodes = freeNodes, .rule = rule, .score = score,
                                .threshold = threshold, .fromNodes = fromNodes,
                                .toNodes = toNodes, .bytes = bytes});
}

void Recorder::migrationDelay(double tSec, std::int32_t job, double delaySec, double bytes) {
  decisions_.push_back(Decision{.kind = Kind::Migration, .tSec = tSec, .job = job,
                                .bytes = bytes, .delaySec = delaySec});
}

void Recorder::waitInterval(std::int32_t job, std::int64_t fromNs, std::int64_t toNs,
                            WaitReason reason) {
  intervals_.push_back(Interval{job, fromNs, toNs, reason});
}

void Recorder::pushSample(double tSec) {
  tsSec_.push_back(tSec);
  tsUsed_.push_back(used_);
  tsFree_.push_back(free_);
  tsRunning_.push_back(running_);
  tsQueued_.push_back(queued_);
}

void Recorder::flushSamples(double uptoSec) {
  if (cadenceSec_ <= 0) return;
  for (;;) {
    const double s = static_cast<double>(nextSample_) * cadenceSec_;
    if (s >= uptoSec) return;
    pushSample(s);
    ++nextSample_;
  }
}

void Recorder::stateSample(double tSec, std::int32_t usedNodes, std::int32_t freeNodes,
                           std::int32_t runningJobs, std::int32_t queuedJobs) {
  // Samples strictly before this change carry the state standing since the
  // previous one; a sample instant that coincides with tSec is emitted
  // later, with the new state (last change at an instant wins).
  flushSamples(tSec);
  used_ = usedNodes;
  free_ = freeNodes;
  running_ = runningJobs;
  queued_ = queuedJobs;
}

void Recorder::jobSummary(std::int32_t job, const std::string& klass, double arrivalSec,
                          double startSec, double finishSec, bool backfilled,
                          const WaitAttribution& attribution) {
  jobs_.push_back(JobRow{job, klass, arrivalSec, startSec, finishSec, backfilled, attribution});
}

void Recorder::endRun(double makespanSec) {
  makespanSec_ = makespanSec;
  if (cadenceSec_ <= 0) return;
  // Flush the remaining instants up to and including the makespan with the
  // final (idle) state.
  for (;;) {
    const double s = static_cast<double>(nextSample_) * cadenceSec_;
    if (s > makespanSec) return;
    pushSample(s);
    ++nextSample_;
  }
}

void Recorder::writeJson(JsonWriter& w) const {
  w.beginObject()
      .field("policy", policy_)
      .field("nodes", nodes_)
      .field("seed", seed_)
      .field("makespan_sec", makespanSec_)
      .field("decision_count", static_cast<std::uint64_t>(decisions_.size()));
  w.key("wait_reasons").beginArray();
  for (std::size_t r = 0; r < kWaitReasonCount; ++r)
    w.value(waitReasonName(static_cast<WaitReason>(r)));
  w.endArray();

  w.key("decisions").beginArray();
  for (const Decision& d : decisions_) {
    w.beginObject();
    switch (d.kind) {
      case Kind::Admit:
      case Kind::Candidate:
        w.field("kind", d.kind == Kind::Admit ? "admit" : "backfill_candidate")
            .field("t_sec", d.tSec)
            .field("job", d.job)
            .field("want", d.want)
            .field("alloc", d.alloc)
            .field("free", d.freeNodes);
        if (d.kind == Kind::Candidate) w.field("spare", d.spare);
        w.field("started", d.started);
        if (!d.started) w.field("reason", waitReasonName(d.reason));
        w.field("rule", d.rule).field("score", d.score).field("threshold", d.threshold);
        break;
      case Kind::Cutoff:
        w.field("kind", "depth_cutoff").field("t_sec", d.tSec).field("job", d.job);
        break;
      case Kind::Pass:
        w.field("kind", "backfill_pass")
            .field("t_sec", d.tSec)
            .field("head_job", d.job)
            .field("head_alloc", d.alloc)
            .field("shadow_sec", d.shadowSec)
            .field("spare", d.spare)
            .field("considered", d.considered)
            .field("started", d.startedCount);
        break;
      case Kind::Realloc:
        w.field("kind", "realloc")
            .field("t_sec", d.tSec)
            .field("job", d.job)
            .field("from", d.fromNodes)
            .field("to", d.toNodes)
            .field("free", d.freeNodes)
            .field("bytes", d.bytes)
            .field("rule", d.rule)
            .field("score", d.score)
            .field("threshold", d.threshold);
        break;
      case Kind::Migration:
        w.field("kind", "migration")
            .field("t_sec", d.tSec)
            .field("job", d.job)
            .field("delay_sec", d.delaySec)
            .field("bytes", d.bytes);
        break;
    }
    w.endObject();
  }
  w.endArray();

  w.key("wait_intervals").beginArray();
  for (const Interval& iv : intervals_)
    w.beginObject()
        .field("job", iv.job)
        .field("from_sec", nsToSec(iv.fromNs))
        .field("to_sec", nsToSec(iv.toNs))
        .field("reason", waitReasonName(iv.reason))
        .endObject();
  w.endArray();

  w.key("jobs").beginArray();
  for (const JobRow& j : jobs_) {
    w.beginObject()
        .field("id", j.id)
        .field("class", j.klass)
        .field("arrival_sec", j.arrivalSec)
        .field("start_sec", j.startSec)
        .field("finish_sec", j.finishSec)
        .field("backfilled", j.backfilled);
    w.key("wait_ns").beginObject();
    for (std::size_t r = 0; r < kWaitReasonCount; ++r)
      w.field(waitReasonName(static_cast<WaitReason>(r)), j.attribution.byReason[r]);
    w.field("total", j.attribution.totalNs).endObject();
    w.field("migration_delay_ns", j.attribution.migrationDelayNs)
        .field("dominant", j.attribution.totalNs > 0
                               ? waitReasonName(j.attribution.dominant())
                               : "none")
        .field("dominant_share", j.attribution.dominantShare())
        .endObject();
  }
  w.endArray();

  w.key("timeseries")
      .beginObject()
      .field("cadence_sec", cadenceSec_)
      .field("points", static_cast<std::uint64_t>(tsSec_.size()));
  w.key("t_sec").beginArray();
  for (double t : tsSec_) w.value(t);
  w.endArray();
  w.key("used_nodes").beginArray();
  for (std::int32_t v : tsUsed_) w.value(v);
  w.endArray();
  w.key("free_nodes").beginArray();
  for (std::int32_t v : tsFree_) w.value(v);
  w.endArray();
  w.key("running_jobs").beginArray();
  for (std::int32_t v : tsRunning_) w.value(v);
  w.endArray();
  w.key("queue_depth").beginArray();
  for (std::int32_t v : tsQueued_) w.value(v);
  w.endArray();
  w.key("utilization").beginArray();
  for (std::int32_t v : tsUsed_)
    w.value(nodes_ > 0 ? static_cast<double>(v) / static_cast<double>(nodes_) : 0.0);
  w.endArray().endObject();

  w.endObject();
}

std::string Recorder::jsonString() const {
  return jsonText([&](JsonWriter& w) { writeJson(w); });
}

std::string Recorder::explain(std::int32_t job) const {
  const JobRow* row = nullptr;
  for (const JobRow& j : jobs_)
    if (j.id == job) row = &j;
  std::ostringstream os;
  if (row == nullptr) {
    os << "job " << job << ": not found in this record (policy " << policy_ << ")\n";
    return os.str();
  }

  const WaitAttribution& wa = row->attribution;
  const double waitSec = nsToSec(wa.totalNs);
  os << "job " << row->id << " (" << row->klass << ") under " << policy_ << ": arrived t="
     << sec3(row->arrivalSec) << "s, started t=" << sec3(row->startSec) << "s"
     << (row->backfilled ? " (backfilled)" : "") << ", finished t=" << sec3(row->finishSec)
     << "s\n";
  os << "queue wait " << sec3(waitSec) << "s";
  if (wa.totalNs > 0) {
    os << ", attributed to:";
    bool any = false;
    for (std::size_t r = 0; r < kWaitReasonCount; ++r) {
      if (wa.byReason[r] <= 0) continue;
      const double frac =
          static_cast<double>(wa.byReason[r]) / static_cast<double>(wa.totalNs) * 100.0;
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.0f%%", frac);
      os << (any ? "; " : " ") << waitReasonLabel(static_cast<WaitReason>(r)) << " "
         << sec3(nsToSec(wa.byReason[r])) << "s (" << pct << ")";
      any = true;
    }
    os << "\ndominant wait reason: " << waitReasonLabel(wa.dominant()) << "\n";
  } else {
    os << " (started on arrival)\n";
  }
  if (wa.migrationDelayNs > 0)
    os << "migration stalls while running: " << sec3(nsToSec(wa.migrationDelayNs)) << "s\n";

  os << "timeline:\n";
  os << "  t=" << sec3(row->arrivalSec) << "s  arrived\n";
  // Merge this job's decisions (by decision time) and wait intervals (by
  // close time; on a tie the interval reads first — it led up to the
  // decision that closed it).  Both streams are chronological per job.
  std::vector<const Decision*> ds;
  for (const Decision& d : decisions_)
    if (d.job == job) ds.push_back(&d);
  std::vector<const Interval*> ivs;
  for (const Interval& iv : intervals_)
    if (iv.job == job) ivs.push_back(&iv);
  std::size_t di = 0, ii = 0;
  while (di < ds.size() || ii < ivs.size()) {
    const bool takeInterval =
        ii < ivs.size() && (di >= ds.size() || nsToSec(ivs[ii]->toNs) <= ds[di]->tSec);
    if (takeInterval) {
      const Interval& iv = *ivs[ii++];
      const double fromSec = nsToSec(iv.fromNs), toSec = nsToSec(iv.toNs);
      os << "  t=" << sec3(fromSec) << "s -> " << sec3(toSec) << "s  waited "
         << sec3(toSec - fromSec) << "s: " << waitReasonLabel(iv.reason) << "\n";
      continue;
    }
    const Decision& d = *ds[di++];
    os << "  t=" << sec3(d.tSec) << "s  ";
    switch (d.kind) {
      case Kind::Admit:
      case Kind::Candidate: {
        const char* where = d.kind == Kind::Admit ? "admit" : "backfill";
        if (d.started) {
          os << where << ": started on " << d.alloc << " nodes";
        } else {
          os << where << ": held — " << waitReasonLabel(d.reason) << " (want " << d.want
             << ", alloc " << d.alloc << ", free " << d.freeNodes;
          if (d.kind == Kind::Candidate) os << ", spare " << d.spare;
          os << ")";
        }
        if (!d.rule.empty()) os << " [rule=" << d.rule << "]";
        os << "\n";
        break;
      }
      case Kind::Cutoff:
        os << "backfill pass skipped this job: " << waitReasonLabel(WaitReason::DepthCutoff)
           << "\n";
        break;
      case Kind::Pass:
        os << "backfill pass for this blocked head: reservation of " << d.alloc << " nodes at t="
           << sec3(d.shadowSec) << "s (spare " << d.spare << "), considered " << d.considered
           << ", started " << d.startedCount << "\n";
        break;
      case Kind::Realloc:
        os << "realloc " << d.fromNodes << " -> " << d.toNodes << " ("
           << (d.toNodes < d.fromNodes ? "shrink" : "grow") << ", " << mb(d.bytes) << " moved)";
        if (!d.rule.empty()) {
          os << " [rule=" << d.rule;
          if (d.threshold > 0) os << ", score " << sec3(d.score) << " vs threshold "
                                  << sec3(d.threshold);
          os << "]";
        }
        os << "\n";
        break;
      case Kind::Migration:
        os << "migration stall " << sec3(d.delaySec) << "s (" << mb(d.bytes) << ")\n";
        break;
    }
  }
  os << "  t=" << sec3(row->finishSec) << "s  finished\n";
  return os.str();
}

void Recorder::writeTrace(TraceSink& sink, std::int32_t pid) const {
  sink.processName(pid, "policy: " + policy_);
  for (const Interval& iv : intervals_)
    sink.completeSpan(waitReasonName(iv.reason), "wait", static_cast<double>(iv.fromNs) * 1e-3,
                      static_cast<double>(iv.toNs - iv.fromNs) * 1e-3, pid, iv.job);

  // What a job's queued and run spans carry beyond its row: the allocation
  // it started on and its realloc totals, summed in record order.
  struct RunFacts {
    std::int32_t alloc = 0, reallocations = 0;
    double migratedBytes = 0;
  };
  std::map<std::int32_t, RunFacts> facts;
  std::vector<const Decision*> passStarts; // started candidates of the open pass
  for (const Decision& d : decisions_) {
    const double ts = d.tSec * 1e6;
    switch (d.kind) {
      case Kind::Admit:
      case Kind::Candidate:
        if (!d.started) break;
        facts[d.job].alloc = d.alloc;
        if (d.kind == Kind::Candidate) passStarts.push_back(&d);
        break;
      case Kind::Cutoff:
        break;
      case Kind::Pass: // closes the pass its candidates belong to
        for (const Decision* c : passStarts)
          sink.instant("backfill", "sched", c->tSec * 1e6, pid, c->job,
                       "{\"alloc\":" + std::to_string(c->alloc) +
                           ",\"shadow_sec\":" + jsonDouble(d.shadowSec) +
                           ",\"spare\":" + std::to_string(c->spare) + "}");
        passStarts.clear();
        break;
      case Kind::Realloc: {
        RunFacts& f = facts[d.job];
        ++f.reallocations;
        f.migratedBytes += d.bytes;
        sink.instant("realloc", "job", ts, pid, d.job,
                     "{\"from\":" + std::to_string(d.fromNodes) +
                         ",\"to\":" + std::to_string(d.toNodes) +
                         ",\"bytes\":" + jsonDouble(d.bytes) + "}");
        break;
      }
      case Kind::Migration:
        sink.completeSpan("migrate", "job", ts, d.delaySec * 1e6, pid, d.job,
                          "{\"bytes\":" + jsonDouble(d.bytes) + "}");
        break;
    }
  }

  for (const JobRow& j : jobs_) {
    const RunFacts& f = facts[j.id];
    sink.completeSpan("queued", "queue", j.arrivalSec * 1e6,
                      std::max(0.0, j.startSec - j.arrivalSec) * 1e6, pid, j.id,
                      "{\"alloc\":" + std::to_string(f.alloc) + "}");
    sink.completeSpan(j.klass, "job", j.startSec * 1e6, (j.finishSec - j.startSec) * 1e6, pid,
                      j.id,
                      "{\"reallocations\":" + std::to_string(f.reallocations) +
                          ",\"migrated_bytes\":" + jsonDouble(f.migratedBytes) +
                          ",\"backfilled\":" + (j.backfilled ? "true" : "false") + "}");
  }
}

} // namespace dps::obs
