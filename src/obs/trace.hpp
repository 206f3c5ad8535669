// obs::TraceSink — Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// The sink buffers complete spans ("X"), instant events ("i") and
// process-name metadata ("M") and writes the standard
// {"traceEvents":[...]} document.  Timestamps are microseconds, in whatever
// clock the instrumented layer lives in: the DES cluster loop records
// *simulated* time (simNowSec * 1e6), the profile service records *wall*
// time (obs::WallClock::elapsedMicros) — the pid axis keeps them apart, so
// one file can carry both.
//
// Thread-safe behind one mutex: tracing is for inspection runs, not hot
// paths, so a shared lock is the right simplicity trade-off (pool workers
// emit a handful of spans per request, not per event).  Like the metrics
// registry, a null sink pointer means "disabled" — instrumented layers
// check and skip, so traces cost nothing when not requested.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace dps::obs {

class TraceSink {
public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// A complete span ("ph":"X") covering [tsMicros, tsMicros + durMicros].
  /// `argsJson`, when non-empty, must be a complete JSON object literal.
  void completeSpan(std::string name, std::string category, double tsMicros, double durMicros,
                    std::int32_t pid, std::int32_t tid, std::string argsJson = {});
  /// A thread-scoped instant event ("ph":"i").
  void instant(std::string name, std::string category, double tsMicros, std::int32_t pid,
               std::int32_t tid, std::string argsJson = {});
  /// Metadata: names the pid lane in the viewer.
  void processName(std::int32_t pid, const std::string& name);

  /// One buffered event; `ts`/`dur` are in the caller's microseconds.
  struct Event {
    char phase = 'X';
    std::string name;
    std::string category;
    std::string args; // pre-rendered JSON object ("" = none)
    double ts = 0;
    double dur = 0;
    std::int32_t pid = 0;
    std::int32_t tid = 0;
  };

  /// A copy of every event so far, in emission order.
  std::vector<Event> events() const;

  /// The {"traceEvents":[...]} document, events in emission order.
  void write(std::ostream& os) const;
  std::string jsonString() const;
  /// Returns false (and writes nothing) when the file cannot be opened.
  bool writeFile(const std::string& path) const;

private:
  void push(Event e);

  mutable std::mutex mu_;
  std::vector<Event> events_;
};

} // namespace dps::obs
