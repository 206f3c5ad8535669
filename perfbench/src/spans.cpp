#include "spans.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

std::string layerOf(const std::string& spanName) {
  const auto colon = spanName.find(':');
  return colon == std::string::npos ? spanName : spanName.substr(0, colon);
}

std::vector<double> selfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].endUs - spans[i].startUs;
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.endUs - s.startUs;
  return self;
}

std::map<std::string, double> layerSelfSec(const std::vector<Span>& spans, int root) {
  const std::vector<double> self = selfTimesUs(spans);
  // Parents precede their children in the list, so one forward pass marks
  // the whole subtree.
  std::vector<bool> inTree(spans.size(), false);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    inTree[i] = static_cast<int>(i) == root || (p >= 0 && inTree[static_cast<std::size_t>(p)]);
    if (inTree[i]) out[layerOf(spans[i].name)] += self[i] * 1e-6;
  }
  return out;
}

int Recorder::open(std::string name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), clock_.elapsedMicros(), 0,
                        stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Recorder::close(int id) {
  if (id < 0) return;
  std::erase(stack_, id); // scopes nest, so this is the innermost entry
  spans_[static_cast<std::size_t>(id)].endUs = clock_.elapsedMicros();
}

void Recorder::rename(int id, std::string name) {
  if (id >= 0) spans_.at(static_cast<std::size_t>(id)).name = std::move(name);
}

double Recorder::durationSec(int id) const {
  if (id < 0) return 0;
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return (s.endUs - s.startUs) * 1e-6;
}

bool Recorder::writeChromeTrace(const std::string& path) const {
  dps::obs::TraceSink sink;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string args = "{\"id\":";
    args += std::to_string(i);
    args += ",\"parent\":";
    args += std::to_string(s.parent);
    args += "}";
    sink.completeSpan(s.name, layerOf(s.name), s.startUs, s.endUs - s.startUs, 1, 1,
                      std::move(args));
  }
  return sink.writeFile(path);
}

} // namespace perfbench
