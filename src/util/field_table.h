#ifndef KRCORE_UTIL_FIELD_TABLE_H_
#define KRCORE_UTIL_FIELD_TABLE_H_

#include <algorithm>
#include <string>
#include <tuple>

#include "util/json.h"

namespace krcore {

/// How MergeFields combines a field: counters add; the wall-clock time of
/// workers that overlap in time takes the max.
enum class Merge { kSum, kMax };

/// One row of a report's field table: the JSON key (the member's name) and
/// the member. A report declares its rows once, in
/// `static constexpr auto Fields()` returning a std::tuple of Fields, and
/// derives MergeFrom and ToJson from them.
template <typename S, typename T>
struct Field {
  const char* key;
  T S::*member;
  Merge merge = Merge::kSum;
};
template <typename S, typename T>
Field(const char*, T S::*) -> Field<S, T>;
template <typename S, typename T>
Field(const char*, T S::*, Merge) -> Field<S, T>;

/// Combines `from` into `*into` by each row's Merge rule. The table is a
/// compile-time tuple, so this unrolls to straight-line code.
template <typename S>
void MergeFields(const S& from, S* into) {
  auto merge = [&](const auto& f) {
    auto& to = into->*f.member;
    to = f.merge == Merge::kMax ? std::max(to, from.*f.member)
                                : to + from.*f.member;
  };
  std::apply([&](const auto&... f) { (merge(f), ...); }, S::Fields());
}

/// Writes every row of `s` as a member of the open JSON object.
template <typename S>
void WriteFields(const S& s, JsonWriter* out) {
  std::apply([&](const auto&... f) { (out->Member(f.key, s.*f.member), ...); },
             S::Fields());
}

/// `s` as one JSON object keyed by member name, in table order.
template <typename S>
std::string FieldsJson(const S& s) {
  JsonWriter out;
  WriteFields(s, &out.BeginObject());
  return out.EndObject().Take();
}

}  // namespace krcore

#endif  // KRCORE_UTIL_FIELD_TABLE_H_
