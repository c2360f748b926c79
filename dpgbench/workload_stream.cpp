// Workload `stream`: writes beside reads. A closed-loop ingest of mixed
// batches on a simple symmetric Erdős–Rényi graph: each batch deletes 16
// present edge pairs and adds 16 absent ones through
// server::apply_mutation, then repair_query answers SSSP (fixed point, the
// schedule with a decremental repair), CC and k-core. Freshness runs from
// the start of apply_mutation until all three repaired answers are back.
#include <numeric>
#include <set>
#include <utility>

#include "algo/baselines.hpp"
#include "graph/generators.hpp"
#include "oracle.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace dpgbench {
namespace {

namespace algo = dpg::algo;
namespace graph = dpg::graph;
namespace pmap = dpg::pmap;
namespace serve = dpg::serve;

constexpr int kPairsPerBatch = 16;
constexpr double kMaxWeight = 20.0;

/// The mutation stream: batch t deletes kPairsPerBatch present pairs and
/// adds kPairsPerBatch absent ones, both directed halves each, so the graph
/// stays simple and symmetric (the k-core maintainer's domain) with a
/// constant live-edge count.
class edge_stream {
 public:
  edge_stream(vertex_id n, std::span<const graph::edge> base, std::uint64_t seed)
      : n_(n), rng_(seed) {
    for (const graph::edge& e : base)
      if (e.src < e.dst && present_.insert({e.src, e.dst}).second)
        pairs_.push_back({e.src, e.dst});
  }

  void next(std::vector<graph::edge>& adds, std::vector<graph::edge>& dels) {
    adds.clear();
    dels.clear();
    for (int i = 0; i < kPairsPerBatch; ++i) {
      const auto idx = static_cast<std::size_t>(rng_.below(pairs_.size()));
      const auto [u, v] = pairs_[idx];
      pairs_[idx] = pairs_.back();
      pairs_.pop_back();
      present_.erase({u, v});
      dels.push_back({u, v});
      dels.push_back({v, u});
    }
    for (int i = 0; i < kPairsPerBatch; ++i) {
      vertex_id u = 0, v = 0;
      do {
        u = rng_.below(n_);
        v = rng_.below(n_);
        if (u > v) std::swap(u, v);
      } while (u == v || present_.contains({u, v}));
      present_.insert({u, v});
      pairs_.push_back({u, v});
      adds.push_back({u, v});
      adds.push_back({v, u});
    }
  }

 private:
  vertex_id n_;
  dpg::xoshiro256ss rng_;
  std::vector<std::pair<vertex_id, vertex_id>> pairs_;
  std::set<std::pair<vertex_id, vertex_id>> present_;
};

}  // namespace

void run_stream(const options& opt, report& rep) {
  const vertex_id n = opt.smoke ? 1024 : 16384;
  const dpg::ampp::rank_t ranks = 2;
  const int setups = opt.smoke ? 2 : 5;
  const std::vector<graph::edge> base = graph::simplify(
      graph::symmetrize(graph::erdos_renyi(n, std::uint64_t{4} * n, opt.seed)));
  const std::uint64_t ws = opt.seed ^ 0x11;

  struct served {
    std::unique_ptr<distributed_graph> g;
    std::unique_ptr<pmap::edge_property_map<double>> w;
    std::unique_ptr<serve::server> srv;
  };
  served s;
  serve::query qs{serve::algorithm::sssp, {}, 0};
  const serve::query qc{serve::algorithm::cc, {}, 0};
  const serve::query qk{serve::algorithm::kcore, {}, 0};
  std::vector<double> setup_s, graph_ms, session_ms;
  for (int i = 0; i < setups; ++i) {
    s = served{};
    spans::op root("bench.setup", "bench", 0, true);
    const auto t0 = clock_type::now();
    {
      spans::scope sp("graph.build", "graph");
      s.g = std::make_unique<distributed_graph>(n, base,
                                                graph::distribution::cyclic(n, ranks));
    }
    graph_ms.push_back(ms_since(t0));
    if (i == 0) qs.params.source = pick_sources(*s.g, opt.seed).front();
    s.w = std::make_unique<pmap::edge_property_map<double>>(
        hashed_weights(*s.g, ws, kMaxWeight));
    serve::server_config cfg;
    cfg.machine.n_ranks = ranks;
    s.srv = std::make_unique<serve::server>(*s.g, *s.w, cfg);
    {
      // Construct the three sessions up front, then warm up with the cold
      // solves that pin the state later batches repair.
      std::vector<serve::session_pool::lease> leases;
      const auto t1 = clock_type::now();
      for (const serve::query& q : {qs, qc, qk}) {
        spans::scope sp("serve.pool.checkout", "serve");
        leases.push_back(s.srv->pool().checkout(q.algo));
      }
      session_ms.push_back(ms_since(t1));
    }
    for (const serve::query& q : {qs, qc, qk}) {
      spans::scope sp("serve.query", "serve");
      s.srv->query(q);
    }
    setup_s.push_back(seconds_since(t0));
  }
  const distributed_graph& g = *s.g;
  serve::server& srv = *s.srv;

  edge_stream stream(n, base, opt.seed * 977 + 1);
  std::vector<graph::edge> adds, dels;
  std::vector<double> fresh_ms, traced_ms, untraced_ms, mutation_ms;
  std::vector<double> repair_ms[3];
  std::uint64_t repairs = 0, warm = 0;
  layer_tally tally;
  const auto start = clock_type::now();
  std::uint64_t batch = 0;
  while (batch == 0 || seconds_since(start) < opt.seconds) {
    ++batch;
    const bool traced = opt.trace && batch % 2 == 0;
    stream.next(adds, dels);
    std::shared_ptr<const serve::session_result> r[3];
    std::string err;
    const auto t0 = clock_type::now();
    {
      spans::op root("bench.batch", "bench", batch, traced);
      try {
        {
          spans::scope sp("serve.apply_mutation", "serve");
          srv.apply_mutation(adds, dels);
        }
        mutation_ms.push_back(ms_since(t0));
        const serve::query* qs3[3] = {&qs, &qc, &qk};
        for (int k = 0; k < 3; ++k) {
          spans::scope sp("serve.repair_query", "serve");
          const auto t1 = clock_type::now();
          r[k] = srv.repair_query(*qs3[k]);
          repair_ms[k].push_back(ms_since(t1));
        }
      } catch (const std::exception& e) {
        err = std::string("batch threw: ") + e.what();
      }
    }
    const double fresh = ms_since(t0);
    if (!err.empty()) {
      rep.check(err);
      continue;
    }
    fresh_ms.push_back(fresh);
    (traced ? traced_ms : untraced_ms).push_back(fresh);
    for (const auto& res : r) {
      ++repairs;
      warm += res->warm_repair ? 1 : 0;
      if (res->algo == serve::algorithm::sssp) {
        tally.add(res->stats_delta);
        tally.add_strategy(res->rounds, res->modifications,
                           res->stats_delta.core.handler_invocations);
      }
    }

    // Oracle checks at the version every answer is pinned to (the live one:
    // this loop is the only writer and nothing runs concurrently).
    spans::op check("bench.oracle", "bench", batch, traced);
    for (const auto& res : r)
      if (res->graph_version != g.version())
        rep.check("answer pinned to version " + std::to_string(res->graph_version) +
                  ", graph at " + std::to_string(g.version()));
    rep.check(check_doubles("sssp repair", r[0]->values,
                            algo::dijkstra(g, *s.w, qs.params.source)));
    const std::vector<vertex_id> cc = algo::cc_union_find(g);
    rep.check(check_words("cc repair", r[1]->values, {cc.begin(), cc.end()}));
    rep.check(check_words("kcore repair", r[2]->values, algo::kcore_peel(g)));
  }

  rep.info("fresh_p50_ms", median(fresh_ms), "ms", fresh_ms.size());
  rep.info("fresh_p95_ms", percentile(fresh_ms, 0.95), "ms", fresh_ms.size());
  rep.info("repair_sssp_ms", median(repair_ms[0]), "ms", repair_ms[0].size());
  rep.info("repair_cc_ms", median(repair_ms[1]), "ms", repair_ms[1].size());
  rep.info("repair_kcore_ms", median(repair_ms[2]), "ms", repair_ms[2].size());
  rep.info("warm_share", ratio(warm, repairs), "share", repairs);
  rep.info("ranks", ranks, "count");
  rep.info("vertices", static_cast<double>(n), "count");
  rep.info("edges", static_cast<double>(base.size()), "count");

  if (!opt.trace) {
    const double total_ms = std::accumulate(fresh_ms.begin(), fresh_ms.end(), 0.0);
    rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("p50_ms", median(fresh_ms), "ms", fresh_ms.size());
    rep.e2e("throughput_per_s", ratio(static_cast<double>(fresh_ms.size()), total_ms / 1e3),
            "1/s", fresh_ms.size());
    return;
  }
  rep.layer("graph.build_ms", median(graph_ms), "ms");
  rep.layer("graph.overlay_bytes", static_cast<double>(g.overlay_bytes()), "bytes");
  rep.layer("graph.tombstone_bytes", static_cast<double>(g.tombstone_bytes()), "bytes");
  rep.layer("graph.delta_edges", static_cast<double>(g.total_delta_edges()), "count");
  rep.layer("graph.tombstoned_edges", static_cast<double>(g.total_tombstoned_edges()),
            "count");
  rep.layer("pattern.session_build_ms", median(session_ms), "ms");
  tally.emit(rep);
  rep.layer("algo.repair_sssp_ms", median(repair_ms[0]), "ms");
  rep.layer("algo.repair_cc_ms", median(repair_ms[1]), "ms");
  rep.layer("algo.repair_kcore_ms", median(repair_ms[2]), "ms");
  rep.layer("algo.warm_share", ratio(warm, repairs), "share");
  rep.layer("serve.mutation_ms", median(mutation_ms), "ms");
  rep.layer("serve.sessions_created", static_cast<double>(srv.pool().created()), "count");
  rep.layer("obs.trace_overhead_share",
            ratio(median(traced_ms) - median(untraced_ms), median(untraced_ms)), "share");
  measure_floors(ranks, opt.smoke ? 20 : 200, rep);
}

}  // namespace dpgbench
