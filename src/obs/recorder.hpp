// obs::Recorder — the scheduler flight recorder.
//
// A cluster event loop with a recorder attached narrates every decision it
// makes: each admission verdict (started, or held with a typed wait
// reason), each backfill pass with its shadow-time reservation and
// per-candidate outcomes, each shrink/grow grant with the policy's scoring
// inputs, each migration stall, plus per-job wait intervals and a
// simulated-time timeseries of cluster gauges.  Like the metrics registry
// and trace sink, a null recorder pointer means "disabled": instrumented
// code checks and skips, and recording never feeds back into simulation
// state.  Golden digests of the recorder JSON pin the cluster loop
// decision by decision.
//
// The Chrome trace of a cluster run is a third rendering of the same
// record (writeTrace), so the loop narrates each event once.
//
// Wait attribution is integer arithmetic by design: intervals are measured
// in simulated nanoseconds (the SimTime tick), so a job's per-reason
// buckets telescope to exactly start - arrival with no floating-point
// residue — the sum-to-total invariant tests assert equality, not
// tolerance.  The WaitAttribution struct lives here (not in sched) so
// ClusterMetrics can embed it while the recorder renders and explains it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dps {
class JsonWriter;
} // namespace dps

namespace dps::obs {

class TraceSink;

/// Why a queued job was not running during one wait interval.
enum class WaitReason : std::uint8_t {
  /// Queued behind a blocked head (or not yet considered at all) — the
  /// default state of every job deeper in the queue.
  HeadOfLine = 0,
  /// The job itself was offered and its granted allocation exceeds the
  /// currently free nodes.
  InsufficientFree = 1,
  /// The policy returned "keep queued" (admit() <= 0).
  PolicyHeld = 2,
  /// First backfill candidate the --backfill-depth bound excluded from the
  /// scan (deeper jobs stay HeadOfLine — they were never reachable anyway).
  DepthCutoff = 3,
  /// Backfilling the job now would delay the blocked head's shadow-time
  /// reservation (EASY's one invariant).
  ShadowTime = 4,
};
inline constexpr std::size_t kWaitReasonCount = 5;

/// JSON slug, e.g. "head_of_line".
const char* waitReasonName(WaitReason r);
/// Human label for narratives, e.g. "head-of-line blocked".
const char* waitReasonLabel(WaitReason r);

/// Per-job queue-wait decomposition in integer simulated nanoseconds.
/// Invariant (exact, integer telescoping): sum(byReason) == totalNs ==
/// start tick - arrival tick.  migrationDelayNs is NOT queue time — it
/// accumulates the realloc stalls charged while the job runs.
struct WaitAttribution {
  std::array<std::int64_t, kWaitReasonCount> byReason{};
  std::int64_t totalNs = 0;
  std::int64_t migrationDelayNs = 0;

  std::int64_t sumNs() const {
    std::int64_t s = 0;
    for (std::int64_t v : byReason) s += v;
    return s;
  }
  /// Largest bucket (lowest reason index wins ties — deterministic).
  WaitReason dominant() const;
  /// dominant bucket / totalNs; 0 when the job never waited.
  double dominantShare() const;
};

/// One run's flight record.  beginRun resets, the event-loop hooks append,
/// endRun seals; writeJson/explain render.  Not thread-safe (one recorder
/// per single-threaded event loop — attach one per policy).
class Recorder {
public:
  /// Decision-row taxonomy, public so auditors (sched::explore's invariant
  /// verifier) can re-check every recorded decision against the rules the
  /// loop claims to follow.
  enum class Kind : std::uint8_t { Admit, Candidate, Cutoff, Pass, Realloc, Migration };

  /// One recorded decision row — a union-ish record keyed by `kind`; the
  /// field groups below each kind's comment are only meaningful for it.
  struct Decision {
    Kind kind = Kind::Admit;
    double tSec = 0;
    std::int32_t job = -1; // the head job for Kind::Pass
    std::int32_t want = 0, alloc = 0, freeNodes = 0, spare = 0;
    bool started = false;
    WaitReason reason = WaitReason::HeadOfLine;
    std::string_view rule{}; // DecisionContext::rule, a static string: viewed, not copied
    double score = 0, threshold = 0;
    // Kind::Pass
    std::int32_t considered = 0, startedCount = 0;
    double shadowSec = 0;
    // Kind::Realloc / Kind::Migration
    std::int32_t fromNodes = 0, toNodes = 0;
    double bytes = 0, delaySec = 0;
  };

  /// `timeseriesCadenceSec` > 0 samples the cluster gauges every that many
  /// *simulated* seconds (piecewise-constant between state changes); 0
  /// disables the timeseries.
  explicit Recorder(double timeseriesCadenceSec = 0);

  // ----------------------------------------------------------------- feed --
  // Called by the cluster event loops, in simulated time.

  void beginRun(const std::string& policy, std::int32_t nodes, std::uint64_t seed);
  /// Head-of-queue admission verdict.  `denial` is meaningful when
  /// !started; rule/score/threshold echo the policy's DecisionContext.
  void admitDecision(double tSec, std::int32_t job, std::int32_t want, std::int32_t alloc,
                     std::int32_t freeNodes, bool started, WaitReason denial, const char* rule,
                     double score, double threshold);
  /// One backfill candidate's verdict (spare = surplus beyond the head's
  /// reservation at evaluation time).
  void backfillCandidate(double tSec, std::int32_t job, std::int32_t want, std::int32_t alloc,
                         std::int32_t freeNodes, std::int32_t spare, bool started,
                         WaitReason denial, const char* rule, double score, double threshold);
  /// First candidate the backfill depth bound excluded this pass.
  void depthCutoff(double tSec, std::int32_t job);
  /// Pass summary, emitted after the candidate walk (shadowSec < 0: the
  /// head can never fit, no reservation was possible).
  void backfillPass(double tSec, std::int32_t headJob, std::int32_t headAlloc, double shadowSec,
                    std::int32_t spare, std::int32_t considered, std::int32_t started);
  /// A shrink/grow grant at a phase boundary (never called for "hold").
  void reallocDecision(double tSec, std::int32_t job, std::int32_t fromNodes,
                       std::int32_t toNodes, std::int32_t freeNodes, double bytes,
                       const char* rule, double score, double threshold);
  /// Migration stall charged after a grant.
  void migrationDelay(double tSec, std::int32_t job, double delaySec, double bytes);
  /// One closed wait interval [fromNs, toNs) of simulated time attributed
  /// to `reason`.
  void waitInterval(std::int32_t job, std::int64_t fromNs, std::int64_t toNs, WaitReason reason);
  /// Cluster gauges after a state change at tSec; drives the timeseries.
  void stateSample(double tSec, std::int32_t usedNodes, std::int32_t freeNodes,
                   std::int32_t runningJobs, std::int32_t queuedJobs);
  /// Final per-job row (from the finalized metrics fold).
  void jobSummary(std::int32_t job, const std::string& klass, double arrivalSec, double startSec,
                  double finishSec, bool backfilled, const WaitAttribution& attribution);
  /// Seals the run: flushes timeseries samples up to the makespan.
  void endRun(double makespanSec);

  // --------------------------------------------------------------- render --

  /// {"policy":...,"decisions":[...],"jobs":[...],"timeseries":{...}} at
  /// value position — deterministic, so equal recorder contents compare as
  /// equal strings.
  void writeJson(JsonWriter& w) const;
  /// writeJson as a standalone document.
  std::string jsonString() const;
  /// Human-readable causal narrative for one job: arrival, every decision
  /// that touched it, every wait interval with its reason, every realloc,
  /// finish, and the attribution summary naming the dominant reason.
  std::string explain(std::int32_t job) const;
  /// The run as Chrome trace events in simulated microseconds on lane
  /// `pid`, one tid per job id: a wait span per interval, a queued and a
  /// run span per job, a realloc instant and a migrate span per grant, and
  /// a backfill instant per started candidate.
  void writeTrace(TraceSink& sink, std::int32_t pid) const;

  std::size_t decisionCount() const { return decisions_.size(); }
  std::size_t intervalCount() const { return intervals_.size(); }
  std::size_t sampleCount() const { return tsSec_.size(); }
  double cadenceSec() const { return cadenceSec_; }
  /// The decision rows in the order the loop emitted them (audit access).
  const std::vector<Decision>& decisions() const { return decisions_; }

private:
  struct Interval {
    std::int32_t job = 0;
    std::int64_t fromNs = 0, toNs = 0;
    WaitReason reason = WaitReason::HeadOfLine;
  };

  struct JobRow {
    std::int32_t id = 0;
    std::string klass;
    double arrivalSec = 0, startSec = 0, finishSec = 0;
    bool backfilled = false;
    WaitAttribution attribution;
  };

  /// Emits every pending sample instant strictly before `uptoSec` using the
  /// state standing since the previous change.
  void flushSamples(double uptoSec);
  void pushSample(double tSec);

  double cadenceSec_ = 0;
  std::string policy_;
  std::int32_t nodes_ = 0;
  std::uint64_t seed_ = 0;
  double makespanSec_ = 0;
  std::vector<Decision> decisions_;
  std::vector<Interval> intervals_;
  std::vector<JobRow> jobs_;
  // Timeseries columns + the piecewise-constant state between changes.
  std::vector<double> tsSec_;
  std::vector<std::int32_t> tsUsed_, tsFree_, tsRunning_, tsQueued_;
  std::int32_t used_ = 0, free_ = 0, running_ = 0, queued_ = 0;
  std::int64_t nextSample_ = 0; // next sample index k; instant = k * cadence
};

} // namespace dps::obs
