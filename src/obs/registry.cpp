#include "obs/registry.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/json.hpp"

namespace dps::obs {

std::vector<double> secondsBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0};
}

std::vector<double> bytesBounds() {
  return {1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0, 1073741824.0, 17179869184.0};
}

void Counter::add(std::uint64_t n) const {
  if (cell_ == nullptr) return;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  cell_->count += n;
}

void Gauge::set(double v) const {
  if (cell_ == nullptr) return;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  cell_->max = cell_->count == 0 ? v : std::max(cell_->max, v);
  ++cell_->count;
}

void Histogram::observe(double v) const {
  if (cell_ == nullptr) return;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  Registry::Cell& cell = *cell_;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(cell.bounds.begin(), cell.bounds.end(), v) - cell.bounds.begin());
  ++cell.buckets[bucket];
  if (cell.count == 0) {
    cell.min = cell.max = v;
  } else {
    cell.min = std::min(cell.min, v);
    cell.max = std::max(cell.max, v);
  }
  ++cell.count;
  cell.sum += v;
}

Counter Registry::counter(const std::string& name) {
  return Counter{this, intern(name, Kind::Counter)};
}

Gauge Registry::gauge(const std::string& name) { return Gauge{this, intern(name, Kind::Gauge)}; }

Histogram Registry::histogram(const std::string& name, std::vector<double> bounds) {
  DPS_CHECK(!bounds.empty(), "histogram needs at least one bucket bound");
  DPS_CHECK(std::is_sorted(bounds.begin(), bounds.end()), "histogram bounds must ascend");
  return Histogram{this, intern(name, Kind::Histogram, std::move(bounds))};
}

Registry::Cell* Registry::intern(const std::string& name, Kind kind, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = cells_.try_emplace(name);
  Cell& cell = it->second;
  if (fresh) {
    cell.kind = kind;
    if (kind == Kind::Histogram) cell.buckets.assign(bounds.size() + 1, 0);
    cell.bounds = std::move(bounds);
    return &cell;
  }
  DPS_CHECK(cell.kind == kind, "metric '" + name + "' re-registered as another kind");
  DPS_CHECK(cell.bounds == bounds, "histogram '" + name + "' re-registered with different bounds");
  return &cell;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, cell] : cells_) {
    switch (cell.kind) {
      case Kind::Counter: snap.counters.push_back({name, cell.count}); break;
      case Kind::Gauge: snap.gauges.push_back({name, cell.max}); break;
      case Kind::Histogram:
        snap.histograms.push_back(
            {name, cell.bounds, cell.buckets, cell.count, cell.sum, cell.min, cell.max});
        break;
    }
  }
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
