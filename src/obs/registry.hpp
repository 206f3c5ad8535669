// obs::Registry — named counters, gauges, and fixed-bucket histograms
// shared by every layer.
//
// Design constraints, in order:
//   * zero-cost when disabled — instrumented code holds null-safe handles;
//     a default-constructed Counter/Gauge/Histogram is a no-op, so layers
//     instrument unconditionally and pay one branch when no registry is
//     attached;
//   * one lock — every metric has one value cell, written under the
//     registry's mutex.  That is enough because no write site is hot: the
//     cluster loop folds its totals once per run (sched/observe.cpp), an
//     engine run once per run or per migration step (sched/engine_run.cpp,
//     the malleability controller), the profile cache once per lookup;
//   * deterministic output — cells live in a name-keyed map, so snapshot()
//     emits name-sorted values and the JSON is stable across thread
//     interleavings whenever the recorded totals are: counters sum, a
//     gauge keeps the maximum value ever set (high-water), a histogram
//     counts every observation.
//
// Instrumentation must stay OUTSIDE result computation: nothing in this
// header feeds back into simulation state, and the determinism tests run
// with metrics attached to prove it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dps {
class JsonWriter;
} // namespace dps

namespace dps::obs {

class Counter;
class Gauge;
class Histogram;

/// Log-spaced second bounds, 1us .. 1000s (service latencies and simulated
/// durations alike).
std::vector<double> secondsBounds();
/// Power-of-16 byte bounds, 1KiB .. 16GiB (migration / state sizes).
std::vector<double> bytesBounds();

/// Every metric's value at one instant, name-sorted.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;        // ascending upper bounds
    std::vector<std::uint64_t> counts; // bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    /// Upper-bound estimate from the cumulative bucket counts (the exact
    /// max for the overflow bucket); 0 on an empty histogram.
    double quantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Lookup helpers for tests and embedders; zero / null when absent.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramValue* histogram(const std::string& name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} at value
  /// position, every section name-sorted.
  void writeJson(JsonWriter& w) const;
  std::string jsonString() const;
};

class Registry {
public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Idempotent registration: the same name always returns a handle to the
  /// same metric (re-registering under a different kind is an error).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` must be ascending and non-empty; re-registration must repeat
  /// the same bounds.
  Histogram histogram(const std::string& name, std::vector<double> bounds = secondsBounds());

  Snapshot snapshot() const;
  std::string jsonString() const;

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

  /// One metric's value; only the fields of its kind are used.
  struct Cell {
    Kind kind = Kind::Counter;
    std::vector<double> bounds;         // histogram bucket bounds
    std::vector<std::uint64_t> buckets; // histogram: bounds.size() + 1
    std::uint64_t count = 0;            // counter total, gauge sets, observations
    double sum = 0;
    double min = 0;
    double max = 0; // gauge high-water, histogram max
  };

  Cell* intern(const std::string& name, Kind kind, std::vector<double> bounds = {});

  mutable std::mutex mu_; // guards cells_ and every Cell in it
  // Map nodes never move, so handles keep plain pointers to their cells.
  std::map<std::string, Cell> cells_;
};

/// Monotonic event count.  Null-safe: default-constructed handles no-op.
class Counter {
public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;

private:
  friend class Registry;
  Counter(Registry* reg, Registry::Cell* cell) : reg_(reg), cell_(cell) {}
  Registry* reg_ = nullptr;
  Registry::Cell* cell_ = nullptr;
};

/// High-water mark: the snapshot reads the maximum value ever set, 0 when
/// never set (queue depths, scores, makespans set once per run).
class Gauge {
public:
  Gauge() = default;
  void set(double v) const;

private:
  friend class Registry;
  Gauge(Registry* reg, Registry::Cell* cell) : reg_(reg), cell_(cell) {}
  Registry* reg_ = nullptr;
  Registry::Cell* cell_ = nullptr;
};

/// Fixed upper-bound bucket histogram (latencies, sizes).  Values above the
/// last bound land in an overflow bucket; count/sum/min/max are exact.
class Histogram {
public:
  Histogram() = default;
  void observe(double v) const;

private:
  friend class Registry;
  Histogram(Registry* reg, Registry::Cell* cell) : reg_(reg), cell_(cell) {}
  Registry* reg_ = nullptr;
  Registry::Cell* cell_ = nullptr;
};

} // namespace dps::obs
