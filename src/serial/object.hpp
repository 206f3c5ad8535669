// Strongly-typed data objects circulating in DPS flow graphs.
//
// Objects never travel as bytes: both engines hand them on as shared
// pointers and charge the network for their wire size alone.  That size is
// the paper's "modified serializer" (§4: it "only counts the number of
// bytes ... without performing any memory copies"), which lets the NOALLOC
// mode move payloads that were never allocated.  Each object overrides
// wireSize() with byteCount() over its fields:
//   * arithmetic and enum values count sizeof;
//   * strings and vectors count a u64 length plus their elements;
//   * a pair counts both members.
// A payload type adds its own count (see lu::BlockPayload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dps::serial {

class ObjectBase {
public:
  virtual ~ObjectBase() = default;

  /// Wire size in bytes, computed without touching payload memory.
  virtual std::size_t wireSize() const = 0;
};

using ObjectPtr = std::shared_ptr<const ObjectBase>;

namespace detail {

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct IsSequence : std::false_type {};
template <>
struct IsSequence<std::string> : std::true_type {};
template <typename T>
struct IsSequence<std::vector<T>> : std::true_type {};

template <typename T>
constexpr bool kScalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <typename T>
concept Countable = kScalar<T> || IsPair<T>::value || IsSequence<T>::value;

template <Countable T>
std::size_t fieldBytes(const T& v) {
  if constexpr (kScalar<T>) {
    return sizeof(T);
  } else if constexpr (IsPair<T>::value) {
    return fieldBytes(v.first) + fieldBytes(v.second);
  } else {
    using E = typename T::value_type;
    std::size_t n = sizeof(std::uint64_t);
    if constexpr (std::is_arithmetic_v<E>) {
      n += v.size() * sizeof(E);
    } else {
      for (const E& e : v) n += fieldBytes(e);
    }
    return n;
  }
}

} // namespace detail

/// Wire bytes of the given fields: byteCount(level, i, j, pivots).
template <typename... Ts>
std::size_t byteCount(const Ts&... vs) {
  return (std::size_t{0} + ... + detail::fieldBytes(vs));
}

} // namespace dps::serial
