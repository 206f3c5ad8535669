// Host-time spans recorded by the benchmark around its calls into each
// layer of the simulator.
//
// A span has a name of the form "<layer>:<call>", a start and end in host
// microseconds since the recorder was created, and the id of the span that
// was open when it started (its parent).  Spans stay in memory and
// are written out as Chrome trace-event JSON when a traced rep ends.  A
// layer's self time is the summed duration of its spans minus the part of
// those intervals their child spans cover, so the self times of all layers
// under a root span add up to the root's duration exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  int parent = -1; // index into the span list; -1 for a root
};

/// "svc:buildProfileTable" -> "svc"; a name without ':' is its own layer.
std::string layerOf(const std::string& spanName);

/// Duration minus the durations of direct children, per span (index
/// aligned with `spans`).  Children must nest inside their parent, which
/// the single-threaded Recorder guarantees.
std::vector<double> selfTimesUs(const std::vector<Span>& spans);

/// Self time in seconds summed per layer over `root` and its descendants.
std::map<std::string, double> layerSelfSec(const std::vector<Span>& spans, int root);

/// Records nested spans on the calling thread.  A disabled recorder keeps
/// nothing and never reads the clock, so untraced reps pay one branch per
/// call site.
class Recorder {
public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int open(std::string name);
  void close(int id);
  /// Renames a span once its outcome is known (a cache lookup that turned
  /// out to be a hit rather than an engine run).
  void rename(int id, std::string name);

  const std::vector<Span>& spans() const { return spans_; }
  double durationSec(int id) const;
  /// Writes the spans as Chrome trace-event JSON, one complete event per
  /// span with its id and parent id in the args; false if `path` cannot be
  /// written.
  bool writeChromeTrace(const std::string& path) const;

private:
  bool enabled_;
  dps::obs::WallClock clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opened on construction, closed by stop() or at scope exit.
class Scope {
public:
  Scope(Recorder& rec, std::string name) : rec_(rec), id_(rec.open(std::move(name))) {}
  ~Scope() {
    if (!stopped_) rec_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  /// Closes the span now; returns its duration in seconds (0 untraced).
  double stop() {
    if (!stopped_) rec_.close(id_);
    stopped_ = true;
    return rec_.durationSec(id_);
  }

private:
  Recorder& rec_;
  int id_;
  bool stopped_ = false;
};

} // namespace perfbench
