#ifndef KRCORE_UTIL_JSON_H_
#define KRCORE_UTIL_JSON_H_

#include <string>

namespace krcore {

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes,
/// control characters).
std::string JsonEscape(const std::string& s);

/// Formats a double for JSON round-tripping (shortest form preserving the
/// exact value; NaN/Inf — which JSON lacks — render as null). Every JSON
/// emitter writes its doubles through this, so a value reads back exactly.
std::string JsonDouble(double v);

}  // namespace krcore

#endif  // KRCORE_UTIL_JSON_H_
