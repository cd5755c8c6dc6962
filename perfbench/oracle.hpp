// Expected results for every job the benchmark runs, computed once per run
// from the in-memory edge list before anything is timed, and the checks that
// compare a job's vertex values against them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace perfbench {

enum class Algo { kPageRank, kBfs, kWcc };

const char* algo_name(Algo algo);

/// PageRank sweeps per job (the paper's setting and the engine tests').
inline constexpr int kPageRankSweeps = 5;

/// ref::pagerank with kPageRankSweeps sweeps.
std::vector<double> expected_pagerank(const husg::EdgeList& g);

/// ref::bfs_levels widened to double (unreached stays 2^32 - 1, exactly).
std::vector<double> expected_bfs(const husg::EdgeList& g,
                                 husg::VertexId source);

/// Fixed point of WccProgram on a *directed* store: the smallest vertex id
/// that reaches v (v itself included). ref::wcc_labels gives the same labels
/// only on symmetrized graphs; the serve workload runs WCC on the directed
/// R-MAT store, so it needs this reachability form of the oracle.
std::vector<double> expected_min_ancestor(const husg::EdgeList& g);

/// `count` BFS sources drawn with `seed` among vertices of out-degree >=
/// `min_degree` whose BFS reaches at least a tenth of the graph, so every
/// BFS job does comparable work. Fills `levels` with each source's oracle.
/// Throws if the graph has too few such vertices.
std::vector<husg::VertexId> pick_sources(const husg::EdgeList& g,
                                         std::uint64_t seed, std::size_t count,
                                         husg::VertexId min_degree,
                                         std::vector<std::vector<double>>* levels);

/// Absolute PageRank tolerance of the engine tests (EXPECT_NEAR 1e-3),
/// applied relative to the rank for ranks above 1: the engine accumulates in
/// float, whose rounding grows with the magnitude of hub ranks.
inline constexpr double kPageRankTolerance = 1e-3;

/// Compares job values with the oracle: exact for BFS and WCC, within
/// kPageRankTolerance for PageRank. On mismatch `why` names the first bad
/// vertex.
template <class T>
bool matches(Algo algo, std::span<const T> got, const std::vector<double>& want,
             std::string* why);

}  // namespace perfbench
