#include "experiments/campaign.hpp"

#include "support/json.hpp"

namespace dps::exp {

namespace {

template <typename T>
std::vector<T> orDefault(const std::vector<T>& dim, T fallback) {
  if (!dim.empty()) return dim;
  return {std::move(fallback)};
}

void writeStats(JsonWriter& w, const OnlineStats& s) {
  w.beginObject()
      .field("count", s.count())
      .field("mean", s.mean())
      .field("stddev", s.stddev())
      .field("min", s.min())
      .field("max", s.max())
      .endObject();
}

} // namespace

std::vector<CampaignPoint> SweepGrid::expand() const {
  const auto ns = orDefault(n, base.n);
  const auto rs = orDefault(r, base.r);
  const auto ws = orDefault(workers, base.workers);
  const auto vs = orDefault(variants, VariantSpec{"Basic", base.pipelined, base.parallelMult,
                                                 base.flowControl});
  const auto ps = orDefault(plans, mall::AllocationPlan{});
  const auto pols = orDefault(policies, mall::RemovalPolicy::MigrateColumns);
  const auto seeds = orDefault(fidelitySeeds, std::uint64_t{1});

  std::vector<CampaignPoint> out;
  out.reserve(size());
  for (std::int32_t nn : ns)
    for (std::int32_t rr : rs)
      for (std::int32_t ww : ws)
        for (const auto& v : vs)
          for (const auto& plan : ps)
            for (auto policy : pols)
              for (std::uint64_t seed : seeds) {
                CampaignPoint p;
                p.cfg = base;
                p.cfg.n = nn;
                p.cfg.r = rr;
                p.cfg.workers = ww;
                p.cfg.pipelined = v.pipelined;
                p.cfg.parallelMult = v.parallelMult;
                p.cfg.flowControl = v.flowControl;
                p.plan = plan;
                p.policy = policy;
                p.fidelitySeed = seed;
                out.push_back(std::move(p));
              }
  return out;
}

std::size_t SweepGrid::size() const {
  auto dim = [](std::size_t d) { return d > 0 ? d : std::size_t{1}; };
  return dim(n.size()) * dim(r.size()) * dim(workers.size()) * dim(variants.size()) *
         dim(plans.size()) * dim(policies.size()) * dim(fidelitySeeds.size());
}

CampaignAggregate CampaignResult::aggregate() const {
  CampaignAggregate agg;
  for (const auto& obs : observations) {
    agg.measuredSec.add(obs.measuredSec);
    agg.predictedSec.add(obs.predictedSec);
    agg.error.add(obs.error());
  }
  return agg;
}

std::vector<double> CampaignResult::errors() const {
  std::vector<double> out;
  out.reserve(observations.size());
  for (const auto& obs : observations) out.push_back(obs.error());
  return out;
}

void CampaignResult::writeJson(JsonWriter& w) const {
  w.beginObject().field("jobs", jobs);
  w.key("observations").beginArray();
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto& obs = observations[i];
    const auto& p = points[i];
    w.beginObject()
        .field("label", obs.label)
        .field("n", p.cfg.n)
        .field("r", p.cfg.r)
        .field("workers", p.cfg.workers)
        .field("variant", p.cfg.variantName())
        .field("plan", p.plan.describe())
        .field("fidelity_seed", p.fidelitySeed)
        .field("measured_sec", obs.measuredSec)
        .field("predicted_sec", obs.predictedSec)
        .field("error", obs.error())
        .endObject();
  }
  w.endArray();
  const auto agg = aggregate();
  w.key("aggregate").beginObject();
  w.key("measured_sec");
  writeStats(w, agg.measuredSec);
  w.key("predicted_sec");
  writeStats(w, agg.predictedSec);
  w.key("error");
  writeStats(w, agg.error);
  w.endObject().endObject();
}

std::string CampaignResult::jsonString() const {
  return jsonText([&](JsonWriter& w) { writeJson(w); });
}

Campaign::Campaign(EngineSettings settings) : runner_(std::move(settings)) {}

std::size_t Campaign::add(CampaignPoint point) {
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

std::size_t Campaign::add(const lu::LuConfig& cfg, const mall::AllocationPlan& plan,
                          std::uint64_t fidelitySeed, mall::RemovalPolicy policy,
                          std::string label) {
  CampaignPoint p;
  p.cfg = cfg;
  p.plan = plan;
  p.fidelitySeed = fidelitySeed;
  p.policy = policy;
  p.label = std::move(label);
  return add(std::move(p));
}

std::size_t Campaign::add(const SweepGrid& grid) {
  const std::size_t first = points_.size();
  for (auto& p : grid.expand()) points_.push_back(std::move(p));
  return first;
}

CampaignResult Campaign::prepare(unsigned jobs) const {
  CampaignResult res;
  res.points = points_;
  res.observations.resize(points_.size());
  res.jobs = jobs;
  return res;
}

Observation Campaign::execute(std::size_t index) const {
  const CampaignPoint& p = points_[index];
  Observation obs = runner_.run(p.cfg, p.plan, p.fidelitySeed, p.policy);
  if (!p.label.empty()) obs.label = p.label;
  return obs;
}

CampaignResult Campaign::run(unsigned jobs) const {
  if (jobs == 0) jobs = ThreadPool::hardwareJobs();
  CampaignResult res = prepare(jobs);
  parallelFor(points_.size(), jobs,
              [&](std::size_t i) { res.observations[i] = execute(i); });
  return res;
}

CampaignResult Campaign::run(ThreadPool& pool) const {
  CampaignResult res = prepare(pool.threadCount() + 1);
  parallelFor(pool, points_.size(),
              [&](std::size_t i) { res.observations[i] = execute(i); });
  return res;
}

} // namespace dps::exp
