#ifndef KRCORE_UTIL_JSON_H_
#define KRCORE_UTIL_JSON_H_

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace krcore {

/// Formats a double for JSON round-tripping (shortest form preserving the
/// exact value; NaN/Inf — which JSON lacks — render as null). Every JSON
/// emitter writes its doubles through this, so a value reads back exactly.
std::string JsonDouble(double v);

/// Appends one compact JSON document to a string and tracks the commas
/// itself. Keys and strings are escaped (quotes, backslashes, control
/// bytes); doubles go through JsonDouble.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);

  /// One value: bool, any integer, floating point, or string.
  template <typename T>
  JsonWriter& Value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return Scalar(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      return Scalar(std::to_string(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      return Scalar(JsonDouble(v));
    } else {
      return String(v);
    }
  }

  template <typename T>
  JsonWriter& Member(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }

  /// Releases the document written so far.
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  JsonWriter& Scalar(std::string_view text);
  JsonWriter& String(std::string_view s);

  std::string out_;
  bool need_comma_ = false;  // an element precedes in the open container
};

}  // namespace krcore

#endif  // KRCORE_UTIL_JSON_H_
