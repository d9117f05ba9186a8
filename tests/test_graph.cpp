// Tests for the simple-graph substrate: construction, incidence, lookup,
// unique edge IDs, I/O round-trips and contract enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl::graph {
namespace {

Graph triangle() {
  Graph::Builder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return std::move(b).build();
}

TEST(Graph, BasicShape) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, EdgeIdsAreStableAndShared) {
  // The model assumption: an edge's id is the same from both endpoints.
  const Graph g = triangle();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Endpoints ep = g.endpoints(e);
    EXPECT_EQ(g.find_edge(ep.u, ep.v), e);
    EXPECT_EQ(g.find_edge(ep.v, ep.u), e);
    bool found_u = false, found_v = false;
    for (const auto& inc : g.incident(ep.u))
      if (inc.edge == e) found_u = true;
    for (const auto& inc : g.incident(ep.v))
      if (inc.edge == e) found_v = true;
    EXPECT_TRUE(found_u && found_v);
  }
}

TEST(Graph, EndpointsNormalized) {
  Graph::Builder b(4);
  b.add_edge(3, 1);
  const Graph g = std::move(b).build();
  const Endpoints ep = g.endpoints(0);
  EXPECT_EQ(ep.u, 1u);
  EXPECT_EQ(ep.v, 3u);
}

TEST(Graph, OtherEndpoint) {
  const Graph g = triangle();
  const EdgeId e = g.find_edge(0, 2);
  EXPECT_EQ(g.other_endpoint(e, 0), 2u);
  EXPECT_EQ(g.other_endpoint(e, 2), 0u);
  EXPECT_THROW(g.other_endpoint(e, 1), util::ContractViolation);
}

TEST(Graph, IncidenceSortedByNeighbor) {
  Graph::Builder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build();
  const auto inc = g.incident(2);
  ASSERT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc[0].to, 0u);
  EXPECT_EQ(inc[1].to, 3u);
  EXPECT_EQ(inc[2].to, 4u);
}

TEST(Graph, HasEdgeNegative) {
  const Graph g = triangle();
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 1));
  Graph::Builder b(4);
  b.add_edge(0, 1);
  const Graph g2 = std::move(b).build();
  EXPECT_FALSE(g2.has_edge(2, 3));
}

TEST(Graph, BuilderRejectsBadEdges) {
  Graph::Builder b(3);
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(0, 1), util::ContractViolation);  // duplicate
  EXPECT_THROW(b.add_edge(1, 0), util::ContractViolation);  // dup reversed
  EXPECT_THROW(b.add_edge(1, 1), util::ContractViolation);  // self loop
  EXPECT_THROW(b.add_edge(0, 3), util::ContractViolation);  // out of range
}

TEST(Graph, EmptyAndEdgelessGraphs) {
  Graph::Builder b(4);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_TRUE(g.incident(1).empty());
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = triangle();
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(back.endpoints(e), g.endpoints(e));
}

TEST(GraphIo, ReadSkipsComments) {
  std::stringstream ss("# header\nn 2\n# mid\ne 0 1\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

// Every malformed input must be rejected with a ContractViolation by both
// readers: the in-memory one and the streamed one, which builds without a
// duplicate-detection hash set.
TEST(GraphIo, ReadRejectsGarbage) {
  const struct {
    const char* name;
    const char* text;
  } cases[] = {
      {"no 'n' line", "e 0 1\n"},
      {"unknown tag", "n 2\nx 0 1\n"},
      {"duplicate edge, same orientation", "n 4\ne 1 2\ne 1 2\n"},
      {"duplicate edge, flipped orientation", "n 4\ne 1 2\ne 2 1\n"},
      {"trailing token on 'e'", "n 4\ne 1 2 3\n"},
      {"trailing token on 'n'", "n 4 9\ne 1 2\n"},
      {"junk glued to an endpoint", "n 4\ne 1 2x\n"},
      {"negative node count", "n -1\n"},
      {"negative endpoint", "n 4\ne -1 2\n"},
      {"endpoint out of range", "n 4\ne 0 4\n"},
      {"self-loop", "n 4\ne 2 2\n"},
      {"truncated 'e' line", "n 4\ne 1\n"},
  };
  for (const auto& c : cases) {
    std::istringstream in_mem(c.text);
    EXPECT_THROW((void)read_edge_list(in_mem), util::ContractViolation)
        << "read_edge_list accepted: " << c.name;
    std::istringstream in_stream(c.text);
    EXPECT_THROW((void)read_edge_list_streamed(in_stream),
                 util::ContractViolation)
        << "read_edge_list_streamed accepted: " << c.name;
  }
}

TEST(GraphIo, ReadersAgreeOnValidInput) {
  const char* cases[] = {
      "n 1\n",
      "n 3\ne 0 1\ne 1 2\ne 0 2\n",
      "# header\nn 4\n# mid\ne 3 0\ne 1 2\n",
      "n 4\ne 0 1   \ne\t2 3\r\n",
      "n 3\r\ne 0 1\r\n\r\ne 1 2\r\n",
      "n 3\n   \ne 0 1\n",
  };
  for (const char* text : cases) {
    std::istringstream in_mem(text);
    std::istringstream in_stream(text);
    const Graph a = read_edge_list(in_mem);
    const Graph b = read_edge_list_streamed(in_stream);
    EXPECT_EQ(a.num_nodes(), b.num_nodes()) << text;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << text;
    for (EdgeId e = 0; e < a.num_edges(); ++e)
      EXPECT_EQ(a.edges()[e], b.edges()[e]) << text;
  }
}

TEST(GraphIo, UnknownTagDiagnosticIsPrintable) {
  for (const auto& [text, want] :
       {std::pair{"n 2\nx 0 1\n", "'x'"}, {"n 2\n\x01 0 1\n", "0x01"}}) {
    std::istringstream in(text);
    try {
      (void)read_edge_list(in);
      ADD_FAILURE() << "accepted an unknown tag: " << want;
    } catch (const util::ContractViolation& ex) {
      EXPECT_NE(std::string(ex.what()).find(want), std::string::npos)
          << ex.what();
    }
  }
}

/// The graph `read` builds from `text`, or nullopt if it rejects the input
/// with a ContractViolation. Any other exception fails the test.
template <class Read>
std::optional<Graph> read_or_reject(const std::string& text, Read read) {
  std::istringstream in(text);
  try {
    return read(in);
  } catch (const util::ContractViolation&) {
    return std::nullopt;
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "non-contract exception '" << ex.what()
                  << "' on input:\n" << text;
    return std::nullopt;
  }
}

/// A valid edge list: the 'n' line first, then a random simple graph on
/// at most 40 nodes, with a comment or blank line now and then.
std::vector<std::string> random_edge_list(util::Xoshiro256& rng) {
  const auto n = static_cast<NodeId>(2 + rng.below(39));
  std::vector<std::string> lines{"n " + std::to_string(n)};
  const std::size_t want = rng.below(2 * n);
  std::vector<std::pair<NodeId, NodeId>> seen;
  for (std::size_t i = 0; i < want; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    const auto key = std::pair{std::min(u, v), std::max(u, v)};
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    lines.push_back("e " + std::to_string(u) + " " + std::to_string(v));
    if (rng.below(8) == 0)
      lines.push_back(rng.below(2) != 0 ? "# note" : "  ");
  }
  return lines;
}

/// Applies one random corruption to `lines` (which stays non-empty).
void mutate(std::vector<std::string>& lines, util::Xoshiro256& rng) {
  const std::size_t i = rng.index(lines.size());
  std::string& line = lines[i];
  switch (rng.below(8)) {
    case 0:  // drop a line
      if (lines.size() > 1) lines.erase(lines.begin() + i);
      break;
    case 1:  // duplicate a line
      lines.insert(lines.begin() + i, line);
      break;
    case 2:  // swap two lines
      std::swap(line, lines[rng.index(lines.size())]);
      break;
    case 3:  // insert '-'
      line.insert(rng.index(line.size() + 1), 1, '-');
      break;
    case 4:  // append a token
      line += rng.below(2) != 0 ? " 7" : " x";
      break;
    case 5:  // turn a digit into a letter
      for (char& c : line) {
        if (c >= '0' && c <= '9') {
          c = static_cast<char>('a' + (c - '0'));
          break;
        }
      }
      break;
    case 6: {  // write a value >= 2^32 over the last field
      const std::size_t cut = line.find_last_of(' ');
      if (cut != std::string::npos)
        line = line.substr(0, cut + 1) +
               std::to_string((std::uint64_t{1} << 32) + rng.below(1000));
      break;
    }
    default:  // truncate a line
      line.resize(rng.index(line.size() + 1));
      break;
  }
}

/// True iff an 'n' line follows the first 'e' line — an order only the
/// in-memory reader accepts (the streamed one documents the requirement).
bool n_after_first_e(const std::vector<std::string>& lines) {
  bool seen_e = false;
  for (const std::string& line : lines) {
    const std::size_t at = line.find_first_not_of(" \t\r");
    if (at == std::string::npos || line[0] == '#') continue;
    if (line[at] == 'e') seen_e = true;
    if (line[at] == 'n' && seen_e) return true;
  }
  return false;
}

TEST(GraphIo, FuzzedReadersAgreeOrBothReject) {
  // Mutated valid edge lists: both readers must build identical graphs or
  // both reject with a ContractViolation — never another exception type.
  util::Xoshiro256 rng(0x5eed10);
  std::size_t cases = 0;
  std::size_t rejected = 0;
  while (cases < 2000) {
    std::vector<std::string> lines = random_edge_list(rng);
    const std::size_t mutations = rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(lines, rng);
    if (n_after_first_e(lines)) continue;
    ++cases;
    std::string text;
    for (const std::string& line : lines)
      text += line + (rng.below(4) != 0 ? "\n" : "\r\n");
    const auto a = read_or_reject(text, [](std::istream& in) {
      return read_edge_list(in);
    });
    // A tiny chunk exercises the streamed reader's mid-input flushes.
    const auto b = read_or_reject(text, [](std::istream& in) {
      return read_edge_list_streamed(in, EdgeListStreamOptions{2, 0});
    });
    ASSERT_EQ(a.has_value(), b.has_value())
        << "readers disagree on:\n" << text;
    if (!a) {
      ++rejected;
      continue;
    }
    EXPECT_EQ(a->num_nodes(), b->num_nodes()) << text;
    ASSERT_EQ(a->num_edges(), b->num_edges()) << text;
    for (EdgeId e = 0; e < a->num_edges(); ++e)
      ASSERT_EQ(a->edges()[e], b->edges()[e]) << text;
  }
  // Both outcomes must actually occur, or the fuzz tests nothing.
  EXPECT_GT(rejected, cases / 10);
  EXPECT_LT(rejected, cases - cases / 10);
}

TEST(GraphIo, DotHighlightsSpannerEdges) {
  const Graph g = triangle();
  std::ostringstream os;
  const std::vector<EdgeId> spanner{0};
  write_dot(os, g, spanner, "T");
  const std::string s = os.str();
  EXPECT_NE(s.find("graph T"), std::string::npos);
  EXPECT_NE(s.find("crimson"), std::string::npos);
}

}  // namespace
}  // namespace fl::graph
