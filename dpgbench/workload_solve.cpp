// Workload `solve`: one analyst runs batches of analytics on a large,
// skewed graph. A closed loop with a single caller: each batch is a
// Δ-stepping SSSP (Δ=20), a chaotic fixed-point SSSP, a level-synchronous
// BFS, a Fig. 3 connected-components solve and one fused SSSP+widest+BFS
// solve, every one from a source no earlier solve used. The serving layer
// is bypassed: sessions come straight from algo::make_solver_session.
#include <memory>
#include <numeric>

#include "algo/baselines.hpp"
#include "algo/fused.hpp"
#include "algo/sessions.hpp"
#include "graph/generators.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace dpgbench {
namespace {

namespace algo = dpg::algo;
namespace ampp = dpg::ampp;
namespace graph = dpg::graph;
namespace pmap = dpg::pmap;
namespace serve = dpg::serve;

constexpr double kDelta = 20.0;
constexpr double kMaxWeight = 100.0;
constexpr std::uint64_t kGraphSeed = 1;

struct sizes {
  unsigned scale, edge_factor;
  ampp::rank_t ranks;
  int setups;
};

/// Everything one set-up builds: the graph, its weights and capacities,
/// and the warm sessions the timed loop calls.
struct state {
  std::unique_ptr<distributed_graph> g;
  std::unique_ptr<pmap::edge_property_map<double>> weight, capacity;
  algo::session_env env;
  std::unique_ptr<serve::solver_session> sssp, bfs, cc;
  std::unique_ptr<ampp::transport> fused_tp;
  std::unique_ptr<algo::fused_triple_solver> fused;
};

struct setup_times {
  double total_s, graph_ms, sessions_ms;
};

std::unique_ptr<state> set_up(const std::vector<graph::edge>& edges, vertex_id n,
                              const sizes& sz, std::uint64_t seed, vertex_id warm_source,
                              setup_times& t) {
  const auto t0 = clock_type::now();
  auto s = std::make_unique<state>();
  {
    spans::scope sp("graph.build", "graph");
    s->g = std::make_unique<distributed_graph>(
        n, edges, graph::distribution::cyclic(n, sz.ranks));
  }
  t.graph_ms = ms_since(t0);
  s->weight = std::make_unique<pmap::edge_property_map<double>>(
      hashed_weights(*s->g, seed ^ 0x77, kMaxWeight));
  s->capacity = std::make_unique<pmap::edge_property_map<double>>(
      hashed_weights(*s->g, seed ^ 0xca9, kMaxWeight));
  s->env.g = s->g.get();
  s->env.weights = s->weight.get();
  s->env.machine.n_ranks = sz.ranks;
  const auto t1 = clock_type::now();
  {
    spans::scope sp("pattern.session_build", "pattern");
    s->sssp = algo::make_solver_session(serve::algorithm::sssp, s->env);
    s->bfs = algo::make_solver_session(serve::algorithm::bfs, s->env);
    s->cc = algo::make_solver_session(serve::algorithm::cc, s->env);
    s->fused_tp = std::make_unique<ampp::transport>(s->env.machine, s->env.tuning);
    s->fused = std::make_unique<algo::fused_triple_solver>(*s->fused_tp, *s->g, *s->weight,
                                                          *s->capacity, s->env.copts);
  }
  t.sessions_ms = ms_since(t1);
  {
    // Warm-up: one BFS brings the transport's threads and the graph's
    // pages in before the first timed operation.
    spans::scope sp("algo.warmup", "algo");
    s->bfs->run({.source = warm_source, .delta = 1.0});
  }
  t.total_s = seconds_since(t0);
  return s;
}

}  // namespace

void run_solve(const options& opt, report& rep) {
  const sizes sz = opt.smoke ? sizes{9, 8, 2, 2} : sizes{15, 16, 4, 5};
  graph::rmat_params rp;
  rp.scale = sz.scale;
  rp.edge_factor = sz.edge_factor;
  const vertex_id n = vertex_id{1} << sz.scale;
  // The analyst's graph is fixed; the seed draws the sources.
  const std::vector<graph::edge> edges = graph::symmetrize(graph::rmat(rp, kGraphSeed));

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s, graph_ms, session_ms;
  std::unique_ptr<state> s;
  std::vector<vertex_id> sources;
  for (int i = 0; i < sz.setups; ++i) {
    s.reset();
    if (sources.empty()) {
      const distributed_graph probe(n, edges, graph::distribution::cyclic(n, sz.ranks));
      sources = pick_sources(probe, opt.seed);
    }
    setup_times t{};
    spans::op root("bench.setup", "bench", 0, true);
    s = set_up(edges, n, sz, opt.seed, sources.back(), t);
    setup_s.push_back(t.total_s);
    graph_ms.push_back(t.graph_ms);
    session_ms.push_back(t.sessions_ms);
  }
  const distributed_graph& g = *s->g;

  std::vector<double> batch_ms, traced_ms, untraced_ms;
  std::vector<double> sssp_ms, fp_ms, bfs_ms, cc_ms, fused_ms;
  std::vector<double> dijkstra_ms, bfs_seq_ms, cc_seq_ms;
  layer_tally tally;
  std::size_t next = 0;
  const auto take = [&] { return sources[next++ % (sources.size() - 1)]; };
  const auto run_session = [&](serve::solver_session& sess, const serve::query_params& p,
                               const char* name, std::vector<double>& times) {
    spans::scope sp(name, "algo");
    const auto t0 = clock_type::now();
    serve::session_result r = sess.run(p);
    times.push_back(ms_since(t0));
    return r;
  };
  const auto note_relax = [&](const serve::session_result& r) {
    tally.add(r.stats_delta);
    tally.add_strategy(r.rounds, r.modifications, r.stats_delta.core.handler_invocations);
  };

  const auto start = clock_type::now();
  std::uint64_t batch = 0;
  while (batch == 0 || seconds_since(start) < opt.seconds) {
    ++batch;
    // Traced runs alternate traced and untraced batches: the difference
    // of their medians is the tracing overhead.
    const bool traced = opt.trace && batch % 2 == 0;
    const vertex_id s_delta = take(), s_fp = take(), s_bfs = take();
    const algo::fused_triple_solver::sources fs{take(), take(), take()};
    double batch_total = 0.0;
    serve::session_result r_delta, r_fp, r_bfs, r_cc;
    {
      spans::op root("bench.batch", "bench", batch, traced);
      r_delta = run_session(*s->sssp, {.source = s_delta, .delta = kDelta}, "algo.sssp_delta",
                            sssp_ms);
      r_fp = run_session(*s->sssp, {.source = s_fp, .delta = 0.0}, "algo.sssp_fixed_point",
                         fp_ms);
      r_bfs = run_session(*s->bfs, {.source = s_bfs, .delta = 1.0}, "algo.bfs_level_sync",
                          bfs_ms);
      r_cc = run_session(*s->cc, {}, "algo.cc", cc_ms);
      spans::scope sp("ampp.run.fused3", "ampp");
      const auto t0 = clock_type::now();
      dpg::obs::stats_scope sc(s->fused_tp->obs());
      s->fused_tp->run([&](ampp::transport_context& ctx) { s->fused->run(ctx, fs); });
      const dpg::obs::stats_snapshot fused_delta = sc.finish();
      fused_ms.push_back(ms_since(t0));
      tally.add(fused_delta);
      batch_total = sssp_ms.back() + fp_ms.back() + bfs_ms.back() + cc_ms.back() +
                    fused_ms.back();
    }
    batch_ms.push_back(batch_total);
    (traced ? traced_ms : untraced_ms).push_back(batch_total);
    note_relax(r_delta);
    note_relax(r_fp);
    tally.add(r_bfs.stats_delta);
    tally.add(r_cc.stats_delta);

    // Oracle checks, outside every timed window.
    spans::op check("bench.oracle", "bench", batch, traced);
    auto t0 = clock_type::now();
    const std::vector<double> d_delta = algo::dijkstra(g, *s->weight, s_delta);
    dijkstra_ms.push_back(ms_since(t0));
    rep.check(check_doubles("sssp delta", r_delta.values, d_delta));
    rep.check(check_doubles("sssp fixed point", r_fp.values,
                            algo::dijkstra(g, *s->weight, s_fp)));
    t0 = clock_type::now();
    const std::vector<std::int64_t> levels = algo::bfs_levels(g, s_bfs);
    bfs_seq_ms.push_back(ms_since(t0));
    rep.check(check_bfs("bfs", r_bfs.values, levels, n));
    t0 = clock_type::now();
    const std::vector<vertex_id> labels = algo::cc_union_find(g);
    cc_seq_ms.push_back(ms_since(t0));
    rep.check(check_words("cc", r_cc.values, {labels.begin(), labels.end()}));
    // Fused members against their separate sequential solves.
    const auto words = [n](auto& map) {
      std::vector<std::uint64_t> out(n);
      for (vertex_id v = 0; v < n; ++v) out[v] = std::bit_cast<std::uint64_t>(map[v]);
      return out;
    };
    rep.check(check_doubles("fused sssp", words(s->fused->dist()),
                            algo::dijkstra(g, *s->weight, fs.sssp)));
    rep.check(check_doubles("fused widest", words(s->fused->width()),
                            widest_path(g, *s->capacity, fs.widest)));
    rep.check(check_bfs("fused bfs", words(s->fused->depth()), algo::bfs_levels(g, fs.bfs),
                        s->fused->unreachable_depth()));
  }

  const double measured_s = std::accumulate(batch_ms.begin(), batch_ms.end(), 0.0) / 1e3;
  rep.info("sssp_ms", median(sssp_ms), "ms", sssp_ms.size());
  rep.info("sssp_fp_ms", median(fp_ms), "ms", fp_ms.size());
  rep.info("bfs_ms", median(bfs_ms), "ms", bfs_ms.size());
  rep.info("cc_ms", median(cc_ms), "ms", cc_ms.size());
  rep.info("fused3_ms", median(fused_ms), "ms", fused_ms.size());
  rep.info("dijkstra_ms", median(dijkstra_ms), "ms", dijkstra_ms.size());
  rep.info("bfs_levels_ms", median(bfs_seq_ms), "ms", bfs_seq_ms.size());
  rep.info("cc_union_find_ms", median(cc_seq_ms), "ms", cc_seq_ms.size());
  rep.info("ranks", sz.ranks, "count");
  rep.info("vertices", static_cast<double>(n), "count");
  rep.info("edges", static_cast<double>(g.num_edges()), "count");

  if (!opt.trace) {
    rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("p50_ms", median(batch_ms), "ms", batch_ms.size());
    rep.e2e("throughput_per_s", static_cast<double>(batch_ms.size()) / measured_s, "1/s",
            batch_ms.size());
    return;
  }
  rep.layer("graph.build_ms", median(graph_ms), "ms");
  rep.layer("pattern.session_build_ms", median(session_ms), "ms");
  tally.emit(rep);
  rep.layer("algo.sssp_cost", ratio(median(sssp_ms), median(dijkstra_ms)), "ratio");
  rep.layer("algo.bfs_cost", ratio(median(bfs_ms), median(bfs_seq_ms)), "ratio");
  rep.layer("algo.cc_cost", ratio(median(cc_ms), median(cc_seq_ms)), "ratio");
  rep.layer("obs.trace_overhead_share",
            ratio(median(traced_ms) - median(untraced_ms), median(untraced_ms)), "share");
  measure_floors(sz.ranks, opt.smoke ? 20 : 200, rep);
}

}  // namespace dpgbench
