#include "graph/io.hpp"

#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace fl::graph {

namespace {

/// One parsed non-blank, non-comment line of an edge list. For 'n', `a` is
/// the node count; for 'e', `a` and `b` are the endpoints.
struct EdgeListLine {
  char tag = 0;
  NodeId a = 0;
  NodeId b = 0;
};

/// Reads one unsigned field. A leading '-' is rejected up front: unsigned
/// extraction would otherwise wrap "-1" to UINT32_MAX.
bool read_field(std::istream& ls, NodeId& out) {
  ls >> std::ws;
  if (ls.peek() == '-') return false;
  return static_cast<bool>(ls >> out);
}

/// True iff only whitespace is left on the line.
bool at_line_end(std::istream& ls) {
  ls >> std::ws;
  return ls.eof();
}

/// The tag as it reads in a diagnostic: quoted if printable, else as hex.
std::string tag_name(char tag) {
  const auto byte = static_cast<unsigned char>(tag);
  char buf[8];
  if (byte >= 0x21 && byte < 0x7f) {
    std::snprintf(buf, sizeof(buf), "'%c'", tag);
  } else {
    std::snprintf(buf, sizeof(buf), "0x%02x", byte);
  }
  return buf;
}

/// The line grammar shared by both readers: every field present and
/// unsigned, nothing after the last one. A comment line ('#' first) or a
/// whitespace-only line (including a CRLF file's blank "\r") yields
/// nullopt.
std::optional<EdgeListLine> parse_line(const std::string& line) {
  if (!line.empty() && line[0] == '#') return std::nullopt;
  std::istringstream ls(line);
  EdgeListLine out;
  if (!(ls >> out.tag)) return std::nullopt;
  if (out.tag == 'n') {
    FL_REQUIRE(read_field(ls, out.a) && at_line_end(ls),
               "malformed 'n' line (want 'n <num_nodes>'): " + line);
  } else if (out.tag == 'e') {
    FL_REQUIRE(read_field(ls, out.a) && read_field(ls, out.b) &&
                   at_line_end(ls),
               "malformed 'e' line (want 'e <u> <v>'): " + line);
  } else {
    FL_REQUIRE(false, "unknown edge-list tag " + tag_name(out.tag));
  }
  return out;
}

}  // namespace

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.num_nodes() << '\n';
  for (const auto& e : g.edges()) os << "e " << e.u << ' ' << e.v << '\n';
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  NodeId n = 0;
  bool have_n = false;
  std::vector<Endpoints> edges;
  while (std::getline(is, line)) {
    const std::optional<EdgeListLine> l = parse_line(line);
    if (!l) continue;
    if (l->tag == 'n') {
      FL_REQUIRE(!have_n, "duplicate 'n' line in edge list");
      n = l->a;
      have_n = true;
    } else {
      edges.push_back(Endpoints{l->a, l->b});
    }
  }
  FL_REQUIRE(have_n, "edge list missing 'n' line");
  Graph::Builder b(n);
  for (const auto& e : edges) b.add_edge(e.u, e.v);
  return std::move(b).build();
}

Graph read_edge_list_streamed(std::istream& is,
                              const EdgeListStreamOptions& opt) {
  FL_REQUIRE(opt.chunk_edges >= 1, "stream chunk must hold at least one edge");
  std::string line;
  bool have_n = false;
  // The builder is constructed lazily at the 'n' line; unique_ptr-free via
  // a dummy 0-node builder that is replaced (StreamBuilder is movable).
  Graph::StreamBuilder builder(0);
  std::vector<Endpoints> chunk;
  chunk.reserve(opt.chunk_edges);
  auto flush = [&] {
    for (const auto& e : chunk) builder.add_edge(e.u, e.v);
    chunk.clear();  // capacity retained; the reader re-fills in place
  };
  while (std::getline(is, line)) {
    const std::optional<EdgeListLine> l = parse_line(line);
    if (!l) continue;
    if (l->tag == 'n') {
      FL_REQUIRE(!have_n, "duplicate 'n' line in edge list");
      have_n = true;
      builder = Graph::StreamBuilder(l->a);
      if (opt.reserve_edges > 0) builder.reserve_edges(opt.reserve_edges);
    } else {
      FL_REQUIRE(have_n,
                 "streamed edge list needs the 'n' line before the first "
                 "'e' line");
      chunk.push_back(Endpoints{l->a, l->b});
      if (chunk.size() >= opt.chunk_edges) flush();
    }
  }
  FL_REQUIRE(have_n, "edge list missing 'n' line");
  flush();
  return std::move(builder).build();
}

void write_dot(std::ostream& os, const Graph& g,
               std::span<const EdgeId> highlighted_edges,
               const std::string& name) {
  std::vector<bool> highlight(g.num_edges(), false);
  for (const EdgeId e : highlighted_edges) {
    FL_REQUIRE(e < g.num_edges(), "highlighted edge id out of range");
    highlight[e] = true;
  }
  os << "graph " << name << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) os << "  " << v << ";\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Endpoints ep = g.endpoints(e);
    os << "  " << ep.u << " -- " << ep.v;
    if (highlight[e]) os << " [penwidth=2.5 color=crimson]";
    else os << " [color=gray60]";
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace fl::graph
