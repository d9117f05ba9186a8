#include "core/hierarchy.hpp"

#include <cstdio>

namespace fl::core {

std::string LevelTrace::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "L%u: n_j=%u m_j=%zu light=%zu heavy=%zu neither=%zu "
                "centers=%zu clustered=%zu uncl=%zu queries=%llu F=%llu",
                level, virtual_nodes, virtual_edges, light, heavy, neither,
                centers, clustered, unclustered,
                static_cast<unsigned long long>(query_edges),
                static_cast<unsigned long long>(spanner_added));
  return buf;
}

std::size_t HierarchyTrace::total_query_edges() const {
  std::size_t total = 0;
  for (const auto& l : levels) total += l.query_edges;
  return total;
}

}  // namespace fl::core
