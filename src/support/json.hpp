// Minimal JSON emission helpers shared by every layer's report writers
// (campaign/autocal emitters, sched cluster metrics, bench --json), plus
// the JsonWriter object API those emitters are built on.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dps {

/// Round-trippable double formatting for JSON/CSV emitters: %.17g prints
/// enough digits to reconstruct the exact bit pattern.
inline std::string jsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
inline std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming compact-JSON writer: the one emitter behind every report
/// (campaign, autocal, cluster metrics, replay, benches).  Commas and
/// nesting are handled by a small state stack so emitters state only their
/// structure; formatting matches the historical hand-rolled writers byte
/// for byte — doubles through jsonDouble (%.17g), integers streamed raw,
/// strings through jsonEscape — so reports and their pinned digests stay
/// byte-identical.
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
    os_ << '"' << jsonEscape(std::string(k)) << "\":";
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
    os_ << '"' << jsonEscape(std::string(s)) << '"';
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
  /// Splices a pre-rendered JSON fragment at value position (the benches'
  /// extraJson escape hatch).
  JsonWriter& raw(std::string_view json) {
    valuePrefix();
    os_ << json;
    return *this;
  }
  /// Splices pre-rendered `"key":value[,...]` members into the current
  /// object (no-op on an empty fragment).
  JsonWriter& rawMembers(std::string_view fragment) {
    if (fragment.empty()) return *this;
    DPS_CHECK(!stack_.empty() && stack_.back().isObject && !afterKey_,
              "rawMembers outside an object");
    if (stack_.back().any) os_ << ',';
    stack_.back().any = true;
    os_ << fragment;
    return *this;
  }

  /// key(k).value(v) in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True once every begun object/array is ended (emitters assert this).
  bool closed() const { return stack_.empty() && !afterKey_; }

private:
  struct Frame {
    bool isObject;
    bool any; // a key (object) or value (array) was already emitted
  };

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

} // namespace dps
