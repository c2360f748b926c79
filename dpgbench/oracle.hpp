// Oracle checks and input helpers. Every answer the benchmark times is
// compared bit for bit, outside the timed window, against a sequential
// baseline run on the topology version the answer is pinned to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "pmap/edge_map.hpp"

namespace dpgbench {

using dpg::graph::distributed_graph;
using dpg::graph::vertex_id;

/// Edge weights hashed from the unordered endpoint pair (both directions of
/// a symmetric edge agree), uniform in [1, max_weight]; edges added later
/// are filled by the same function.
dpg::pmap::edge_property_map<double> hashed_weights(const distributed_graph& g,
                                                    std::uint64_t seed, double max_weight);

/// Sources for timed solves: vertices of non-zero degree in the largest
/// connected component, in a seed-determined order. (R-MAT with scrambled
/// ids leaves many isolated vertices; a solve from one measures nothing.)
std::vector<vertex_id> pick_sources(const distributed_graph& g, std::uint64_t seed);

/// Sequential widest (maximum-bottleneck) path, the oracle of the fused
/// solver's widest member: source width +inf, unreached 0.
std::vector<double> widest_path(const distributed_graph& g,
                                const dpg::pmap::edge_property_map<double>& capacity,
                                vertex_id source);

/// Arms the one-shot corruption used by the benchmark's own test: the next
/// checked answer gets one value flipped before it is compared.
void arm_corruption();

/// Each returns an empty string on a match, else a description of the
/// first mismatch. `what` names the answer in the message.
std::string check_doubles(const std::string& what, std::vector<std::uint64_t> got,
                          const std::vector<double>& want);
std::string check_bfs(const std::string& what, std::vector<std::uint64_t> got,
                      const std::vector<std::int64_t>& levels, std::uint64_t unreachable);
std::string check_words(const std::string& what, std::vector<std::uint64_t> got,
                        const std::vector<std::uint64_t>& want);

}  // namespace dpgbench
