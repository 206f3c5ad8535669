#include "obs/trace.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace dps::obs {

void TraceSink::completeSpan(std::string name, std::string category, double tsMicros,
                             double durMicros, std::int32_t pid, std::int32_t tid,
                             std::string argsJson) {
  push(Event{'X', std::move(name), std::move(category), std::move(argsJson), tsMicros, durMicros,
             pid, tid});
}

void TraceSink::instant(std::string name, std::string category, double tsMicros, std::int32_t pid,
                        std::int32_t tid, std::string argsJson) {
  push(Event{'i', std::move(name), std::move(category), std::move(argsJson), tsMicros, 0, pid,
             tid});
}

void TraceSink::processName(std::int32_t pid, const std::string& name) {
  std::string args =
      jsonText([&](JsonWriter& w) { w.beginObject().field("name", name).endObject(); });
  push(Event{'M', "process_name", {}, std::move(args), 0, 0, pid, 0});
}

void TraceSink::push(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::vector<TraceSink::Event> TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceSink::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.beginObject().key("traceEvents").beginArray();
  for (const Event& e : events_) {
    w.beginObject().field("name", e.name);
    if (!e.category.empty()) w.field("cat", e.category);
    w.field("ph", std::string_view(&e.phase, 1));
    if (e.phase != 'M') w.field("ts", e.ts);
    if (e.phase == 'X') w.field("dur", e.dur);
    if (e.phase == 'i') w.field("s", "t"); // thread-scoped instant
    w.field("pid", e.pid).field("tid", e.tid);
    if (!e.args.empty()) w.key("args").raw(e.args);
    w.endObject();
  }
  w.endArray().endObject();
  DPS_CHECK(w.closed(), "unbalanced trace-event JSON");
}

std::string TraceSink::jsonString() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

bool TraceSink::writeFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

} // namespace dps::obs
