#include "graph/io.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace cexplorer {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << content;
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

/// Parses a vertex id field: a decimal integer in [0, kInvalidVertex). A
/// larger id would wrap in the cast to VertexId or collide with the
/// sentinel.
bool ParseVertexId(std::string_view text, VertexId* id) {
  std::int64_t value = 0;
  if (!ParseInt64(text, &value) || value < 0 || value >= kInvalidVertex) {
    return false;
  }
  *id = static_cast<VertexId>(value);
  return true;
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  GraphBuilder builder;
  std::size_t line_no = 0;
  for (const auto& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto fields = SplitWhitespace(line);
    if (fields.size() != 2) {
      return Status::ParseError("edge list line " + std::to_string(line_no) +
                                ": expected 'u v'");
    }
    VertexId u = 0;
    VertexId v = 0;
    if (!ParseVertexId(fields[0], &u) || !ParseVertexId(fields[1], &v)) {
      return Status::ParseError("edge list line " + std::to_string(line_no) +
                                ": invalid vertex id");
    }
    builder.AddEdge(u, v);
  }
  return builder.Build();
}

Result<Graph> LoadEdgeList(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseEdgeList(text.value());
}

std::string ToEdgeList(const Graph& g) {
  std::string out;
  out += "# vertices " + std::to_string(g.num_vertices()) + " edges " +
         std::to_string(g.num_edges()) + "\n";
  for (const auto& [u, v] : g.Edges()) {
    out += std::to_string(u);
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  return out;
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  return WriteFile(path, ToEdgeList(g));
}

Result<AttributedGraph> ParseAttributed(const std::string& text) {
  struct PendingVertex {
    VertexId id = 0;
    std::size_t line_no = 0;
    std::string name;
    std::vector<std::string> keywords;
  };
  std::vector<PendingVertex> declared;  // file order
  std::vector<std::pair<VertexId, VertexId>> edges;

  std::size_t line_no = 0;
  for (const auto& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto fields = Split(line, '\t');
    const std::string where = "attributed line " + std::to_string(line_no);
    if (fields[0] == "v") {
      if (fields.size() < 3 || fields.size() > 4) {
        return Status::ParseError(where + ": expected 'v<TAB>id<TAB>name[<TAB>keywords]'");
      }
      PendingVertex& pv = declared.emplace_back();
      if (!ParseVertexId(fields[1], &pv.id)) {
        return Status::ParseError(where + ": invalid vertex id");
      }
      pv.line_no = line_no;
      pv.name = fields[2];
      if (fields.size() == 4) pv.keywords = SplitWhitespace(fields[3]);
    } else if (fields[0] == "e") {
      if (fields.size() != 3) {
        return Status::ParseError(where + ": expected 'e<TAB>u<TAB>v'");
      }
      VertexId u = 0;
      VertexId v = 0;
      if (!ParseVertexId(fields[1], &u) || !ParseVertexId(fields[2], &v)) {
        return Status::ParseError(where + ": invalid edge endpoint");
      }
      edges.emplace_back(u, v);
    } else {
      return Status::ParseError(where + ": unknown record type '" +
                                std::string(fields[0]) + "'");
    }
  }

  // Ids must be dense: n 'v' records carry exactly the ids 0..n-1, so an
  // id >= n is refused before anything is sized by it, and n distinct ids
  // below n leave no gap.
  std::vector<PendingVertex*> by_id(declared.size(), nullptr);
  for (PendingVertex& pv : declared) {
    const std::string where = "attributed line " + std::to_string(pv.line_no);
    if (pv.id >= by_id.size()) {
      return Status::ParseError(where + ": vertex id " + std::to_string(pv.id) +
                                " out of range: " +
                                std::to_string(by_id.size()) +
                                " vertices declared (ids must be dense)");
    }
    if (by_id[pv.id] != nullptr) {
      return Status::ParseError(where + ": duplicate vertex id");
    }
    by_id[pv.id] = &pv;
  }

  AttributedGraphBuilder builder;
  for (PendingVertex* pv : by_id) {
    builder.AddVertex(std::move(pv->name), pv->keywords);
  }
  for (const auto& [u, v] : edges) {
    CEXPLORER_RETURN_IF_ERROR(builder.AddEdge(u, v));
  }
  return builder.Build();
}

Result<AttributedGraph> LoadAttributed(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseAttributed(text.value());
}

std::string ToAttributedText(const AttributedGraph& g) {
  std::string out;
  out += "# attributed graph: " + std::to_string(g.num_vertices()) +
         " vertices, " + std::to_string(g.graph().num_edges()) + " edges\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out += "v\t";
    out += std::to_string(v);
    out += '\t';
    out += g.Name(v);
    auto kws = g.KeywordStrings(v);
    if (!kws.empty()) {
      out += '\t';
      out += Join(kws, " ");
    }
    out += '\n';
  }
  for (const auto& [u, v] : g.graph().Edges()) {
    out += "e\t";
    out += std::to_string(u);
    out += '\t';
    out += std::to_string(v);
    out += '\n';
  }
  return out;
}

Status SaveAttributed(const AttributedGraph& g, const std::string& path) {
  return WriteFile(path, ToAttributedText(g));
}

}  // namespace cexplorer
