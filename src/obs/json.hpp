/// \file json.hpp
/// \brief The one JSON scalar encoder: the obs layer's JSON emitters
///        (trace, log, flight recorder) and the service's wire codec
///        quote strings and print numbers through these two functions.
#pragma once

#include <string>
#include <string_view>

namespace qrc::obs {

/// `s` as a JSON string literal: surrounding quotes plus escapes for
/// quote, backslash, and every control character.
[[nodiscard]] std::string json_quote(std::string_view s);

/// `d` as a JSON number: integral values below 2^53 without a fraction,
/// others with 17 significant digits, and null for NaN/Inf (JSON has
/// neither).
[[nodiscard]] std::string json_number(double d);

}  // namespace qrc::obs
