#include "oracle.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <queue>
#include <sstream>

#include "algo/baselines.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dpgbench {
namespace {

std::atomic<bool> g_corrupt_armed{false};

/// Consumes the armed corruption, flipping the low bit of one value.
void maybe_corrupt(std::vector<std::uint64_t>& got) {
  if (got.empty() || !g_corrupt_armed.exchange(false)) return;
  got[got.size() / 2] ^= 1;
}

std::string mismatch(const std::string& what, vertex_id v, std::uint64_t got,
                     std::uint64_t want) {
  std::ostringstream os;
  os << what << ": vertex " << v << " got " << got << " want " << want;
  return os.str();
}

}  // namespace

dpg::pmap::edge_property_map<double> hashed_weights(const distributed_graph& g,
                                                    std::uint64_t seed, double max_weight) {
  return dpg::pmap::edge_property_map<double>(
      g, [seed, max_weight](const dpg::graph::edge_handle& e) {
        return dpg::graph::edge_weight(e.src, e.dst, seed, max_weight);
      });
}

std::vector<vertex_id> pick_sources(const distributed_graph& g, std::uint64_t seed) {
  const std::vector<vertex_id> label = dpg::algo::cc_union_find(g);
  const vertex_id n = g.num_vertices();
  std::vector<std::uint64_t> size(n, 0);
  for (vertex_id v = 0; v < n; ++v) ++size[label[v]];
  const vertex_id giant = static_cast<vertex_id>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<vertex_id> out;
  for (vertex_id v = 0; v < n; ++v)
    if (label[v] == giant && g.out_degree(v) > 0) out.push_back(v);
  dpg::xoshiro256ss rng(seed ^ 0x5eedULL);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[static_cast<std::size_t>(rng.below(i))]);
  return out;
}

std::vector<double> widest_path(const distributed_graph& g,
                                const dpg::pmap::edge_property_map<double>& capacity,
                                vertex_id source) {
  std::vector<double> width(g.num_vertices(), 0.0);
  width[source] = std::numeric_limits<double>::infinity();
  using entry = std::pair<double, vertex_id>;
  std::priority_queue<entry> pq;  // widest first
  pq.emplace(width[source], source);
  while (!pq.empty()) {
    const auto [w, v] = pq.top();
    pq.pop();
    if (w < width[v]) continue;  // stale entry
    for (const dpg::graph::edge_handle e : g.out_edges(v)) {
      const double nw = std::min(w, capacity[e]);
      if (nw > width[e.dst]) {
        width[e.dst] = nw;
        pq.emplace(nw, e.dst);
      }
    }
  }
  return width;
}

void arm_corruption() { g_corrupt_armed.store(true); }

std::string check_doubles(const std::string& what, std::vector<std::uint64_t> got,
                          const std::vector<double>& want) {
  maybe_corrupt(got);
  if (got.size() != want.size()) return what + ": wrong result size";
  for (vertex_id v = 0; v < got.size(); ++v)
    if (got[v] != std::bit_cast<std::uint64_t>(want[v]))
      return mismatch(what, v, got[v], std::bit_cast<std::uint64_t>(want[v]));
  return {};
}

std::string check_bfs(const std::string& what, std::vector<std::uint64_t> got,
                      const std::vector<std::int64_t>& levels, std::uint64_t unreachable) {
  maybe_corrupt(got);
  if (got.size() != levels.size()) return what + ": wrong result size";
  for (vertex_id v = 0; v < got.size(); ++v) {
    const std::uint64_t want =
        levels[v] < 0 ? unreachable : static_cast<std::uint64_t>(levels[v]);
    if (got[v] != want) return mismatch(what, v, got[v], want);
  }
  return {};
}

std::string check_words(const std::string& what, std::vector<std::uint64_t> got,
                        const std::vector<std::uint64_t>& want) {
  maybe_corrupt(got);
  if (got.size() != want.size()) return what + ": wrong result size";
  for (vertex_id v = 0; v < got.size(); ++v)
    if (got[v] != want[v]) return mismatch(what, v, got[v], want[v]);
  return {};
}

}  // namespace dpgbench
