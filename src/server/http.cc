#include "server/http.h"

#include <cctype>

#include "api/error.h"
#include "common/strings.h"

namespace cexplorer {

const std::string& HttpRequest::Param(const std::string& key) const {
  static const std::string kEmpty;
  auto it = params.find(key);
  return it == params.end() ? kEmpty : it->second;
}

std::int64_t HttpRequest::IntParam(const std::string& key,
                                   std::int64_t fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  std::int64_t value = 0;
  if (!ParseInt64(it->second, &value)) return fallback;
  return value;
}

HttpResponse HttpResponse::Ok(std::string json) {
  HttpResponse r;
  r.code = 200;
  r.body = std::move(json);
  return r;
}

HttpResponse HttpResponse::Error(int code, std::string_view message) {
  HttpResponse r;
  r.code = code;
  // Derive the envelope from the one taxonomy definition (api/error.h) so
  // parse-level errors carry the same code names as QueryService errors.
  // 405 has no taxonomy code of its own; it renders as INVALID_ARGUMENT.
  api::ApiCode api_code;
  switch (code) {
    case 400:
    case 405:
      api_code = api::ApiCode::kInvalidArgument;
      break;
    case 404:
      api_code = api::ApiCode::kNotFound;
      break;
    case 409:
      api_code = api::ApiCode::kConflict;
      break;
    case 503:
      api_code = api::ApiCode::kUnavailable;
      break;
    case 499:
      api_code = api::ApiCode::kCancelled;
      break;
    case 504:
      api_code = api::ApiCode::kDeadlineExceeded;
      break;
    default:
      api_code = api::ApiCode::kInternal;
      break;
  }
  r.body = api::ApiError{api_code, std::string(message), {}}.ToJson();
  return r;
}

Result<std::string> UrlDecodeStrict(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c != '%') {
      out += c;
    } else if (i + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
      auto hex = [](char h) {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        return h - 'A' + 10;
      };
      out += static_cast<char>(hex(text[i + 1]) * 16 + hex(text[i + 2]));
      i += 2;
    } else {
      return Status::InvalidArgument("malformed %-escape in '" +
                                     std::string(text) + "'");
    }
  }
  return out;
}

std::string UrlEncode(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
        c == '.' || c == '~') {
      out += c;
    } else if (c == ' ') {
      out += '+';
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

Result<HttpRequest> ParseRequest(std::string_view text) {
  // Split the request line from the optional body: everything after the
  // first line break is body, minus one leading blank line (the CRLF CRLF
  // separator of real HTTP, degraded to this mini protocol).
  std::string_view line = text;
  std::string_view body;
  auto newline = text.find('\n');
  if (newline != std::string_view::npos) {
    line = text.substr(0, newline);
    body = text.substr(newline + 1);
    if (!body.empty() && body.front() == '\r') body.remove_prefix(1);
    if (!body.empty() && body.front() == '\n') body.remove_prefix(1);
  }

  auto fields = SplitWhitespace(Trim(line));
  if (fields.size() != 2) {
    return Status::ParseError("expected 'METHOD /path[?query]'");
  }
  HttpRequest req;
  req.method = fields[0];
  if (req.method != "GET" && req.method != "POST" &&
      req.method != "DELETE") {
    return Status::ParseError("only GET, POST and DELETE are supported");
  }
  req.body = std::string(body);
  std::string_view target = fields[1];
  if (target.empty() || target[0] != '/') {
    return Status::ParseError("path must start with '/'");
  }
  auto question = target.find('?');
  req.path = std::string(target.substr(0, question));
  if (question != std::string_view::npos) {
    // Empty query ("/x?") and empty pairs ("a=1&&b=2&") are fine; duplicate
    // keys are last-wins (operator[] assignment); malformed %-escapes are
    // a parse error rather than silently decoded garbage.
    for (const auto& pair : Split(target.substr(question + 1), '&')) {
      if (pair.empty()) continue;
      auto eq = pair.find('=');
      auto key = UrlDecodeStrict(
          std::string_view(pair).substr(0, eq == std::string::npos ? pair.size()
                                                                   : eq));
      if (!key.ok()) return key.status();
      if (eq == std::string::npos) {
        req.params[key.value()] = "";
      } else {
        auto value = UrlDecodeStrict(std::string_view(pair).substr(eq + 1));
        if (!value.ok()) return value.status();
        req.params[std::move(key).value()] = std::move(value).value();
      }
    }
  }
  return req;
}

}  // namespace cexplorer
