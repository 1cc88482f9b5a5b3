// Minimal HTTP-like request/response types for the in-process server that
// stands in for the paper's JSP/Tomcat deployment. A request is a request
// line ("GET /v1/search?name=jim+gray&k=4") optionally followed by a body
// ("POST /v1/batch" + newline(s) + JSON payload); responses carry a status
// code and a JSON body. No sockets: the browser loop of the demo is
// simulated by calling Handle() directly (see examples/server_session.cpp).
//
// Query-string semantics (the documented contract of ParseRequest):
//   * duplicate keys: the LAST occurrence wins ("?k=1&k=2" -> k=2);
//   * an empty query ("/x?") and empty pairs ("/x?a=1&&b=2&") are allowed
//     and the empty pairs are skipped;
//   * a key without '=' is a flag with empty value ("/x?verbose");
//   * malformed %-escapes ("%zz", truncated "%4") are rejected with
//     kInvalidArgument instead of being decoded as garbage.

#ifndef CEXPLORER_SERVER_HTTP_H_
#define CEXPLORER_SERVER_HTTP_H_

#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace cexplorer {

/// A parsed request: method, path, decoded query parameters, and the raw
/// body, which carries every payload (POST, and DELETE /v1/edges).
struct HttpRequest {
  std::string method;  // "GET", "POST" or "DELETE"
  std::string path;    // "/v1/search"
  std::map<std::string, std::string> params;
  std::string body;  // text after the request line, blank line stripped

  /// Parameter value or empty string.
  const std::string& Param(const std::string& key) const;

  /// Parameter as integer with fallback.
  std::int64_t IntParam(const std::string& key, std::int64_t fallback) const;
};

/// A response: status code (HTTP semantics) and a JSON body.
struct HttpResponse {
  int code = 200;
  std::string body;

  static HttpResponse Ok(std::string json);

  /// An error response carrying the structured envelope
  /// {"error":{"code":"...","message":"..."}}; the code string is derived
  /// from the HTTP status (400 -> INVALID_ARGUMENT, 404 -> NOT_FOUND,
  /// 405 -> INVALID_ARGUMENT, 409 -> CONFLICT, 503 -> UNAVAILABLE,
  /// otherwise INTERNAL).
  static HttpResponse Error(int code, std::string_view message);
};

/// Parses "METHOD /path?k=v&k2=v2" with %XX and '+' decoding, per the
/// query-string contract documented at the top of this header. Everything
/// after the first line break is the request body (one leading blank line,
/// LF or CRLF, is stripped); only GET, POST and DELETE are accepted.
Result<HttpRequest> ParseRequest(std::string_view text);

/// Decodes %XX escapes and '+' spaces; a malformed %-escape is an error
/// (kInvalidArgument).
Result<std::string> UrlDecodeStrict(std::string_view text);

/// Encodes a string for use in a query value.
std::string UrlEncode(std::string_view text);

}  // namespace cexplorer

#endif  // CEXPLORER_SERVER_HTTP_H_
