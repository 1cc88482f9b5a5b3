#include "api/types.h"

#include <atomic>
#include <cmath>
#include <limits>

namespace cexplorer {
namespace api {

namespace {

/// Strict field parser for cursor tokens: ASCII digits only, no sign, no
/// whitespace, no trailing bytes — anything Encode would not emit is
/// rejected, so cursors cannot smuggle extra bytes past validation.
bool ParseCursorField(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

std::uint64_t NextResultGeneration() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

std::optional<std::uint32_t> CheckedUint32(double value) {
  constexpr double kMax = std::numeric_limits<std::uint32_t>::max();
  // Written so NaN fails the range test too.
  if (!(value >= 0.0 && value <= kMax) || std::trunc(value) != value) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

std::string PageToken::Encode() const {
  return "g" + std::to_string(graph_epoch) + "-t" +
         std::to_string(static_cast<unsigned>(kind)) + "-i" +
         std::to_string(object_id) + "-r" + std::to_string(generation) +
         "-o" + std::to_string(offset);
}

ApiResult<PageToken> PageToken::Decode(const std::string& text) {
  const ApiError bad =
      ApiError::InvalidArgument("malformed cursor '" + text + "'");
  if (text.empty() || text[0] != 'g') return bad;
  const auto dash_t = text.find("-t", 1);
  if (dash_t == std::string::npos) return bad;
  const auto dash_i = text.find("-i", dash_t + 2);
  if (dash_i == std::string::npos) return bad;
  const auto dash_r = text.find("-r", dash_i + 2);
  if (dash_r == std::string::npos) return bad;
  const auto dash_o = text.find("-o", dash_r + 2);
  if (dash_o == std::string::npos) return bad;
  const std::string_view sv(text);
  std::uint64_t epoch = 0;
  std::uint64_t kind = 0;
  std::uint64_t id = 0;
  std::uint64_t generation = 0;
  std::uint64_t offset = 0;
  // Every field is digits-only to the exact field boundary; in particular
  // the offset field runs to the end of the token, so trailing bytes
  // (whitespace included) are a malformed cursor, not silently ignored.
  if (!ParseCursorField(sv.substr(1, dash_t - 1), &epoch) ||
      !ParseCursorField(sv.substr(dash_t + 2, dash_i - dash_t - 2), &kind) ||
      !ParseCursorField(sv.substr(dash_i + 2, dash_r - dash_i - 2), &id) ||
      !ParseCursorField(sv.substr(dash_r + 2, dash_o - dash_r - 2),
                        &generation) ||
      !ParseCursorField(sv.substr(dash_o + 2), &offset) ||
      kind > static_cast<std::uint64_t>(Kind::kJob)) {
    return bad;
  }
  PageToken token;
  token.graph_epoch = epoch;
  token.kind = static_cast<Kind>(kind);
  token.object_id = id;
  token.generation = generation;
  token.offset = offset;
  return token;
}

}  // namespace api
}  // namespace cexplorer
