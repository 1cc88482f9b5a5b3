// The declarative route table of the /v1 HTTP surface.
//
// One static table declares every endpoint: its name (the path is always
// "/v1/<name>"), the HTTP methods it answers, and its parameter schema
// (name, type, required, default, doc). Route names may contain one or more
// "<param>" segments ("jobs/<id>/result"); the matching segment of the
// request path is captured into the named parameter before validation.
// From this single source of truth the server derives
//
//   * route lookup for the /v1 path (exact or pattern); a path without the
//     "/v1/" prefix is unknown,
//   * method policy (405 for an undeclared method),
//   * automatic parameter validation (missing required params, type
//     mismatches and unknown parameters are kInvalidArgument before any
//     handler runs),
//   * the GET /v1/api self-description document, including the schema of
//     every registered algorithm.
//
// Adding an endpoint means adding one table row and one binder in
// server.cc; there is no other registration.

#ifndef CEXPLORER_API_ROUTES_H_
#define CEXPLORER_API_ROUTES_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/error.h"
#include "explorer/algorithm.h"
#include "server/http.h"

namespace cexplorer {
namespace api {

enum class ParamType { kString, kInt };

/// Wire name of a parameter type ("string", "int").
const char* ParamTypeName(ParamType type);

/// HTTP method mask of a route.
enum RouteMethod : unsigned {
  kMethodGet = 1u << 0,
  kMethodPost = 1u << 1,
  kMethodDelete = 1u << 2,
};

/// The method bit of a request method string, or 0 when unsupported.
unsigned MethodBit(const std::string& method);

struct ParamSpec {
  const char* name;
  ParamType type;
  bool required;           ///< must be present and non-empty
  const char* default_value;  ///< documented default; "" = none
  const char* doc;
};

struct RouteSpec {
  /// Route name; the v1 path is "/v1/<name>". "<param>" segments match any
  /// non-empty path segment and capture it under the bracketed name.
  const char* name;
  unsigned methods;  ///< RouteMethod mask
  const ParamSpec* params;
  std::size_t num_params;
  const char* doc;

  std::string V1Path() const { return std::string("/v1/") + name; }
};

/// The full route table, in documentation order. `count` receives its size.
const RouteSpec* Routes(std::size_t* count);

/// Looks a path up as "/v1/<name>" (exact first, then "<param>"
/// patterns). Returns nullptr when unknown; pattern captures land in
/// `path_params` (may be nullptr when the caller only probes).
const RouteSpec* FindRoute(const std::string& path,
                           std::map<std::string, std::string>* path_params);

/// Validates a parsed request against the schema: required params must be
/// present and non-empty, typed params must parse, and any parameter not in
/// the schema (other than the universal "session") is rejected. Returns
/// nullopt when the request is valid.
std::optional<ApiError> ValidateParams(const RouteSpec& route,
                                       const HttpRequest& request);

/// Renders the GET /v1/api self-description document from the table plus
/// the registered algorithm descriptors (kind, doc, capabilities, and the
/// full parameter schema of each).
std::string DescribeApi(
    const std::vector<const AlgorithmDescriptor*>& algorithms = {});

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_ROUTES_H_
