#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/reference.hpp"
#include "util/rng.hpp"

namespace perfbench {

using husg::EdgeList;
using husg::VertexId;

const char* algo_name(Algo algo) {
  switch (algo) {
    case Algo::kPageRank:
      return "pagerank";
    case Algo::kBfs:
      return "bfs";
    case Algo::kWcc:
      return "wcc";
  }
  return "?";
}

std::vector<double> expected_pagerank(const EdgeList& g) {
  return husg::ref::pagerank(g, kPageRankSweeps);
}

std::vector<double> expected_bfs(const EdgeList& g, VertexId source) {
  const std::vector<std::uint32_t> levels = husg::ref::bfs_levels(g, source);
  return std::vector<double>(levels.begin(), levels.end());
}

std::vector<double> expected_min_ancestor(const EdgeList& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const husg::Edge& e : g.edges()) ++offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(g.num_edges());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const husg::Edge& e : g.edges()) targets[cursor[e.src]++] = e.dst;

  // Flood from every vertex in increasing id order, stopping at vertices a
  // smaller id already claimed: whatever those reach was claimed with them.
  constexpr VertexId kUnset = ~VertexId{0};
  std::vector<VertexId> label(n, kUnset);
  std::vector<VertexId> stack;
  for (VertexId root = 0; root < n; ++root) {
    if (label[root] != kUnset) continue;
    label[root] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
        const VertexId w = targets[k];
        if (label[w] == kUnset) {
          label[w] = root;
          stack.push_back(w);
        }
      }
    }
  }
  return std::vector<double>(label.begin(), label.end());
}

std::vector<VertexId> pick_sources(const EdgeList& g, std::uint64_t seed,
                                   std::size_t count, VertexId min_degree,
                                   std::vector<std::vector<double>>* levels) {
  const std::vector<VertexId> degree = g.out_degrees();
  std::vector<VertexId> candidates;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (degree[v] >= min_degree) candidates.push_back(v);
  }
  husg::SplitMix64 rng(seed ^ 0x50e7b3a1c4d2f689ULL);
  std::vector<VertexId> sources;
  levels->clear();
  const std::size_t max_draws = 8 * count;
  for (std::size_t draw = 0; draw < max_draws && sources.size() < count &&
                             !candidates.empty();
       ++draw) {
    const std::size_t pick = rng.next_below(candidates.size());
    const VertexId v = candidates[pick];
    candidates[pick] = candidates.back();
    candidates.pop_back();
    std::vector<double> lv = expected_bfs(g, v);
    const auto reached = std::count_if(lv.begin(), lv.end(), [](double x) {
      return x != static_cast<double>(husg::ref::kUnreachedLevel);
    });
    if (static_cast<std::uint64_t>(reached) * 10 < g.num_vertices()) continue;
    sources.push_back(v);
    levels->push_back(std::move(lv));
  }
  if (sources.size() < count) {
    throw std::runtime_error("too few BFS sources reach a tenth of the graph");
  }
  return sources;
}

template <class T>
bool matches(Algo algo, std::span<const T> got, const std::vector<double>& want,
             std::string* why) {
  if (got.size() != want.size()) {
    *why = "value count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
    return false;
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    const double a = static_cast<double>(got[v]);
    const double b = want[v];
    const bool ok =
        algo == Algo::kPageRank
            ? std::fabs(a - b) <= kPageRankTolerance * std::max(1.0, b)
            : a == b;
    if (!ok) {
      std::ostringstream os;
      os << algo_name(algo) << " vertex " << v << ": got " << a
         << ", expected " << b;
      *why = os.str();
      return false;
    }
  }
  return true;
}

template bool matches<float>(Algo, std::span<const float>,
                             const std::vector<double>&, std::string*);
template bool matches<std::uint32_t>(Algo, std::span<const std::uint32_t>,
                                     const std::vector<double>&, std::string*);
template bool matches<double>(Algo, std::span<const double>,
                              const std::vector<double>&, std::string*);

}  // namespace perfbench
