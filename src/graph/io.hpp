// Plain-text graph I/O: a one-edge-per-line format for persistence and DOT
// export for the illustrative examples (Figure 1 reproduction).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "graph/graph.hpp"

namespace fl::graph {

/// Format:
///   n <num_nodes>
///   e <u> <v>      (one line per edge; edge ids assigned in file order)
/// Lines starting with '#' are comments; whitespace-only lines are skipped.
/// Fields are unsigned decimal; a sign or any trailing token on a line is a
/// contract violation.
void write_edge_list(std::ostream& os, const Graph& g);
Graph read_edge_list(std::istream& is);

/// Tuning for the out-of-core reader below.
struct EdgeListStreamOptions {
  /// Endpoints buffered per flush into the builder; the reader's transient
  /// footprint is chunk_edges * sizeof(Endpoints), independent of m.
  std::size_t chunk_edges = std::size_t{1} << 20;
  /// Expected edge count, forwarded to StreamBuilder::reserve_edges so the
  /// edge array is allocated once. 0 = unknown (amortized doubling).
  std::size_t reserve_edges = 0;
};

/// Out-of-core variant of read_edge_list for n=10M-scale inputs: parses in
/// fixed-size chunks straight into a Graph::StreamBuilder, so peak memory
/// is the finished graph plus one chunk — no staging vector of all edges
/// and no duplicate-detection hash set. It rejects the same inputs as
/// read_edge_list: range and self-loop checks run per edge, and a
/// duplicate edge (in either orientation) is caught by one O(m) scan of
/// the finished incidence lists. Same format as read_edge_list with one
/// extra requirement: the 'n' line must precede the first 'e' line (the
/// builder needs the node count up front). Edge ids are assigned in file
/// order, identical to read_edge_list.
Graph read_edge_list_streamed(std::istream& is,
                              const EdgeListStreamOptions& opt = {});

/// Graphviz DOT. Spanner edges (if provided) are drawn bold/colored so
/// `dot -Tpng` renders a figure-1-style picture.
void write_dot(std::ostream& os, const Graph& g,
               std::span<const EdgeId> highlighted_edges = {},
               const std::string& name = "G");

}  // namespace fl::graph
