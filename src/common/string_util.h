#ifndef TQP_COMMON_STRING_UTIL_H_
#define TQP_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>

namespace tqp {

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief ASCII uppercase copy.
std::string ToUpper(std::string_view s);

/// \brief Trims ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief SQL LIKE match with '%' (any run) and '_' (any single char).
///
/// Matching is over bytes, which is correct for the UTF-8 patterns TPC-H uses
/// (ASCII only). No escape character support.
bool LikeMatch(std::string_view value, std::string_view pattern);

/// \brief Formats a double with fixed precision (printf "%.*f").
std::string FormatDouble(double v, int precision);

}  // namespace tqp

#endif  // TQP_COMMON_STRING_UTIL_H_
