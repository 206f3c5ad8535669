// Compact JSON emission: the JsonWriter every layer's report emitters write
// into (campaign/autocal reports, sched cluster metrics and replay reports,
// the flight record, metrics snapshots, the benches' and tools' --json
// documents).  An emitter is `void writeJson(JsonWriter&) const` at value
// position, so a document nests its parts in one pass.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dps {

/// Round-trippable double formatting: %.17g prints enough digits to
/// reconstruct the exact bit pattern.
inline std::string jsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Streaming compact-JSON writer: the one emitter behind every report
/// (campaign, autocal, cluster metrics, replay, benches).  Commas and
/// nesting are handled by a small state stack so emitters state only their
/// structure; formatting matches the historical hand-rolled writers byte
/// for byte — doubles through jsonDouble (%.17g), integers streamed raw,
/// strings escaped (quotes, backslashes, control characters) — so reports
/// and their pinned digests stay byte-identical.
class JsonWriter {
public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& beginObject() {
    valuePrefix();
    os_ << '{';
    stack_.push_back(Frame{true, false});
    return *this;
  }
  JsonWriter& endObject() {
    DPS_CHECK(!stack_.empty() && stack_.back().isObject && !afterKey_,
              "endObject outside an object (or after a dangling key)");
    stack_.pop_back();
    os_ << '}';
    return *this;
  }
  JsonWriter& beginArray() {
    valuePrefix();
    os_ << '[';
    stack_.push_back(Frame{false, false});
    return *this;
  }
  JsonWriter& endArray() {
    DPS_CHECK(!stack_.empty() && !stack_.back().isObject, "endArray outside an array");
    stack_.pop_back();
    os_ << ']';
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    DPS_CHECK(!stack_.empty() && stack_.back().isObject && !afterKey_,
              "key() outside an object (or doubled)");
    if (stack_.back().any) os_ << ',';
    stack_.back().any = true;
    writeString(k);
    os_ << ':';
    afterKey_ = true;
    return *this;
  }

  /// JSON has no NaN or Infinity, so a non-finite double is a bug in the
  /// emitter's caller, not something to print as `nan`/`inf`.
  JsonWriter& value(double v) {
    DPS_CHECK(std::isfinite(v), "JSON cannot represent a non-finite double");
    valuePrefix();
    os_ << jsonDouble(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    valuePrefix();
    os_ << (v ? "true" : "false");
    return *this;
  }
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  JsonWriter& value(T v) {
    valuePrefix();
    os_ << v;
    return *this;
  }
  JsonWriter& value(std::string_view s) {
    valuePrefix();
    writeString(s);
    return *this;
  }
  /// Without this overload a string literal would convert to bool (a
  /// standard conversion, preferred over the string_view constructor).
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& null() {
    valuePrefix();
    os_ << "null";
    return *this;
  }
  /// Splices finished JSON text at value position, for text that arrives
  /// as text: a trace event's caller-supplied args, a stored flight record.
  JsonWriter& raw(std::string_view json) {
    valuePrefix();
    os_ << json;
    return *this;
  }

  /// key(k).value(v) in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True once every begun object/array is ended (document owners assert
  /// this before they finish the file).
  bool closed() const { return stack_.empty() && !afterKey_; }

private:
  struct Frame {
    bool isObject;
    bool any; // a key (object) or value (array) was already emitted
  };

  /// `s` as a quoted JSON string literal, unescaped runs written whole.
  void writeString(std::string_view s) {
    os_ << '"';
    std::size_t run = 0; // start of the pending run that needs no escaping
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      const char* esc = nullptr;
      switch (c) {
        case '"': esc = "\\\""; break;
        case '\\': esc = "\\\\"; break;
        case '\n': esc = "\\n"; break;
        case '\t': esc = "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) >= 0x20) continue;
      }
      os_.write(s.data() + run, static_cast<std::streamsize>(i - run));
      run = i + 1;
      if (esc != nullptr) {
        os_ << esc;
      } else {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        os_ << buf;
      }
    }
    os_.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
    os_ << '"';
  }

  void valuePrefix() {
    if (afterKey_) {
      afterKey_ = false;
      return;
    }
    if (stack_.empty()) return; // top-level value
    DPS_CHECK(!stack_.back().isObject, "object members need key() before the value");
    if (stack_.back().any) os_ << ',';
    stack_.back().any = true;
  }

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool afterKey_ = false;
};

/// Renders `emit(JsonWriter&)`, one value-position emitter, as a standalone
/// document (report digests, tests, a trace event's args).
template <typename Emit>
std::string jsonText(Emit&& emit) {
  std::ostringstream os;
  JsonWriter w(os);
  emit(w);
  DPS_CHECK(w.closed(), "unbalanced JSON document");
  return os.str();
}

} // namespace dps
