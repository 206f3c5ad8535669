#include "obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <unordered_map>

#include "support/error.hpp"
#include "support/json.hpp"

namespace dps::obs {

namespace {

/// Process-unique registry ids: the thread-local shard map is keyed by uid,
/// never by address, so a registry allocated where a destroyed one lived
/// cannot inherit its stale shards.
std::uint64_t nextUid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

std::vector<double> secondsBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0};
}

std::vector<double> bytesBounds() {
  return {1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0, 1073741824.0, 17179869184.0};
}

void Counter::add(std::uint64_t n) const {
  if (reg_ != nullptr) reg_->counterAdd(id_, n);
}

void Gauge::set(double v) const {
  if (reg_ != nullptr) reg_->gaugeSet(id_, v);
}

void Histogram::observe(double v) const {
  if (reg_ != nullptr) reg_->observe(id_, *bounds_, v);
}

Registry::Registry() : uid_(nextUid()) {}

Counter Registry::counter(const std::string& name) {
  return Counter{this, intern(name, Kind::Counter, nullptr)};
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge{this, intern(name, Kind::Gauge, nullptr)};
}

Histogram Registry::histogram(const std::string& name, std::vector<double> bounds) {
  DPS_CHECK(!bounds.empty(), "histogram needs at least one bucket bound");
  DPS_CHECK(std::is_sorted(bounds.begin(), bounds.end()), "histogram bounds must ascend");
  auto shared = std::make_shared<const std::vector<double>>(std::move(bounds));
  const std::uint32_t id = intern(name, Kind::Histogram, shared);
  std::shared_ptr<const std::vector<double>> canonical;
  {
    std::lock_guard<std::mutex> lock(mu_);
    canonical = metrics_[id].bounds; // the first registration's bounds win
  }
  return Histogram{this, id, std::move(canonical)};
}

std::uint32_t Registry::intern(const std::string& name, Kind kind,
                               std::shared_ptr<const std::vector<double>> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint32_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name != name) continue;
    DPS_CHECK(metrics_[i].kind == kind, "metric '" + name + "' re-registered as another kind");
    if (kind == Kind::Histogram)
      DPS_CHECK(*metrics_[i].bounds == *bounds,
                "histogram '" + name + "' re-registered with different bounds");
    return i;
  }
  metrics_.push_back(Metric{name, kind, std::move(bounds)});
  return static_cast<std::uint32_t>(metrics_.size() - 1);
}

Registry::Shard& Registry::localShard() {
  thread_local std::unordered_map<std::uint64_t, Shard*> shardOf;
  auto it = shardOf.find(uid_);
  if (it != shardOf.end()) return *it->second;
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  shardOf.emplace(uid_, shard);
  return *shard;
}

Registry::Cell& Registry::cellFor(Shard& shard, std::uint32_t id) {
  if (shard.cells.size() <= id) shard.cells.resize(id + 1);
  return shard.cells[id];
}

void Registry::counterAdd(std::uint32_t id, std::uint64_t n) {
  Shard& shard = localShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  cellFor(shard, id).count += n;
}

void Registry::gaugeSet(std::uint32_t id, double v) {
  Shard& shard = localShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& cell = cellFor(shard, id);
  cell.gaugeValue = v;
  cell.gaugeSet = true;
}

void Registry::observe(std::uint32_t id, const std::vector<double>& bounds, double v) {
  Shard& shard = localShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& cell = cellFor(shard, id);
  if (cell.bucketCounts.empty()) cell.bucketCounts.assign(bounds.size() + 1, 0);
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  ++cell.bucketCounts[bucket];
  if (cell.count == 0) {
    cell.min = cell.max = v;
  } else {
    cell.min = std::min(cell.min, v);
    cell.max = std::max(cell.max, v);
  }
  ++cell.count;
  cell.sum += v;
}

Snapshot Registry::snapshot() const {
  std::vector<Metric> metrics;
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics = metrics_;
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }

  // Fold every shard's cells into one value per metric.
  std::vector<Cell> folded(metrics.size());
  std::vector<bool> any(metrics.size(), false);
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const std::size_t n = std::min(shard->cells.size(), folded.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& c = shard->cells[i];
      Cell& f = folded[i];
      switch (metrics[i].kind) {
        case Kind::Counter: f.count += c.count; break;
        case Kind::Gauge:
          if (!c.gaugeSet) break;
          f.gaugeValue = any[i] ? std::max(f.gaugeValue, c.gaugeValue) : c.gaugeValue;
          any[i] = true;
          break;
        case Kind::Histogram:
          if (c.count == 0) break;
          if (f.bucketCounts.empty()) f.bucketCounts.assign(c.bucketCounts.size(), 0);
          for (std::size_t b = 0; b < c.bucketCounts.size(); ++b)
            f.bucketCounts[b] += c.bucketCounts[b];
          f.min = any[i] ? std::min(f.min, c.min) : c.min;
          f.max = any[i] ? std::max(f.max, c.max) : c.max;
          any[i] = true;
          f.count += c.count;
          f.sum += c.sum;
          break;
      }
    }
  }

  Snapshot snap;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Cell& f = folded[i];
    switch (metrics[i].kind) {
      case Kind::Counter:
        snap.counters.push_back(Snapshot::CounterValue{metrics[i].name, f.count});
        break;
      case Kind::Gauge:
        snap.gauges.push_back(Snapshot::GaugeValue{metrics[i].name, any[i] ? f.gaugeValue : 0.0});
        break;
      case Kind::Histogram: {
        Snapshot::HistogramValue h;
        h.name = metrics[i].name;
        h.bounds = *metrics[i].bounds;
        h.counts = f.bucketCounts.empty() ? std::vector<std::uint64_t>(h.bounds.size() + 1, 0)
                                          : f.bucketCounts;
        h.count = f.count;
        h.sum = f.sum;
        h.min = any[i] ? f.min : 0.0;
        h.max = any[i] ? f.max : 0.0;
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  auto byName = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), byName);
  std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
  std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
  return snap;
}

std::string Registry::jsonString() const { return snapshot().jsonString(); }

double Snapshot::HistogramValue::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= target && counts[b] > 0)
      return b < bounds.size() ? std::min(bounds[b], max) : max;
  }
  return max;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

double Snapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges)
    if (g.name == name) return g.value;
  return 0.0;
}

const Snapshot::HistogramValue* Snapshot::histogram(const std::string& name) const {
  for (const HistogramValue& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

void Snapshot::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.key("counters").beginObject();
  for (const CounterValue& c : counters) w.field(c.name, c.value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const GaugeValue& g : gauges) w.field(g.name, g.value);
  w.endObject();
  w.key("histograms").beginObject();
  for (const HistogramValue& h : histograms) {
    w.key(h.name).beginObject();
    w.field("count", h.count)
        .field("sum", h.sum)
        .field("min", h.min)
        .field("max", h.max)
        .field("p50", h.quantile(0.5))
        .field("p99", h.quantile(0.99));
    w.key("buckets").beginArray();
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      w.beginObject();
      if (b < h.bounds.size()) w.field("le", h.bounds[b]);
      else w.field("le", "+Inf");
      w.field("count", h.counts[b]).endObject();
    }
    w.endArray().endObject();
  }
  w.endObject();
  w.endObject();
}

std::string Snapshot::jsonString() const {
  return jsonText([&](JsonWriter& w) { writeJson(w); });
}

} // namespace dps::obs
