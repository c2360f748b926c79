// Workload `serve`: many tenants query one small graph that is mutated now
// and then. An open loop with Poisson arrivals feeds serve::server through
// two dispatch threads; the mix is 70% SSSP (Δ=20), 20% level-synchronous
// BFS and 10% CC, with sources drawn uniformly from 256 hot vertices, and
// every 40th arrival is a one-pair apply_edges. Each request is timed from
// the moment it was due, so a stall counts against the requests behind it.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "algo/baselines.hpp"
#include "algo/sessions.hpp"
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

constexpr double kDelta = 20.0;
constexpr double kMaxWeight = 100.0;
constexpr unsigned kDispatchers = 2;
constexpr std::size_t kHotSources = 256;
constexpr std::uint64_t kMutationEvery = 40;
constexpr double kLatencyLimitMs = 100.0;

enum class kind : std::uint8_t { sssp, bfs, cc, mutation };

struct arrival {
  std::uint64_t id;  ///< unique over the run; also the server tenant id
  double due_s;      ///< offset from the phase start
  kind k;
  vertex_id a, b;    ///< query source, or the mutated pair
  bool traced;
};

struct outcome {
  clock_type::time_point due, enqueued, started, finished;
  std::shared_ptr<const serve::session_result> result;
  std::string error;
};

/// One recorded mutation: the pair added and the version it produced.
struct mutation_rec {
  std::uint64_t version_after;
  std::vector<graph::edge> added;
};

struct inputs {
  vertex_id n;
  std::vector<graph::edge> edges;
  std::vector<vertex_id> hot;
  std::uint64_t weight_seed;
};

/// Poisson arrivals at `rate` per second, `count` of them.
std::vector<arrival> schedule(const inputs& in, double rate, std::size_t count,
                              std::uint64_t first_id, std::uint64_t seed,
                              std::size_t trace_block) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> mix(0.0, 1.0);
  std::vector<arrival> out;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    arrival a{first_id + i, t, kind::sssp, 0, 0,
              trace_block > 0 && (i / trace_block) % 2 == 1};
    if ((first_id + i) % kMutationEvery == 0) {
      a.k = kind::mutation;
      a.a = static_cast<vertex_id>(rng() % in.n);
      do a.b = static_cast<vertex_id>(rng() % in.n);
      while (a.b == a.a);
    } else {
      const double x = mix(rng);
      a.k = x < 0.7 ? kind::sssp : x < 0.9 ? kind::bfs : kind::cc;
      a.a = in.hot[rng() % in.hot.size()];
    }
    out.push_back(a);
  }
  return out;
}

serve::query to_query(const arrival& a) {
  switch (a.k) {
    case kind::sssp: return {serve::algorithm::sssp, {.source = a.a, .delta = kDelta}, a.id};
    case kind::bfs: return {serve::algorithm::bfs, {.source = a.a, .delta = 1.0}, a.id};
    default: return {serve::algorithm::cc, {}, a.id};
  }
}

/// Drives the server from kDispatchers threads: open() releases each
/// arrival at its due time into a queue the threads drain; closed() has
/// each thread issue the next request as soon as its last one returns.
class dispatcher {
 public:
  dispatcher(serve::server& srv, std::mutex& mut_mu, std::vector<mutation_rec>& muts)
      : srv_(srv), mut_mu_(mut_mu), muts_(muts) {}

  std::vector<outcome> open(const std::vector<arrival>& arr) {
    std::vector<outcome> out(arr.size());
    {
      std::lock_guard<std::mutex> g(mu_);
      queue_.clear();
      done_ = false;
    }
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kDispatchers; ++w)
      workers.emplace_back([&] { drain(arr, out); });
    const auto t0 = clock_type::now();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const auto due = t0 + std::chrono::duration_cast<clock_type::duration>(
                                std::chrono::duration<double>(arr[i].due_s));
      std::this_thread::sleep_until(due);
      out[i].due = due;
      out[i].enqueued = clock_type::now();
      {
        std::lock_guard<std::mutex> g(mu_);
        queue_.push_back(i);
      }
      cv_.notify_one();
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers) t.join();
    return out;
  }

  /// Runs requests back to back for `seconds`; returns the outcomes of the
  /// prefix of `arr` that was issued, and the elapsed time in `elapsed_s`.
  std::vector<outcome> closed(const std::vector<arrival>& arr, double seconds,
                              double& elapsed_s) {
    std::vector<outcome> out(arr.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = clock_type::now();
    const auto stop = t0 + std::chrono::duration_cast<clock_type::duration>(
                               std::chrono::duration<double>(seconds));
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kDispatchers; ++w)
      workers.emplace_back([&] {
        for (;;) {
          if (clock_type::now() >= stop) return;
          const std::size_t i = next.fetch_add(1);
          if (i >= arr.size()) return;
          out[i].due = out[i].enqueued = clock_type::now();
          execute(arr[i], out[i]);
        }
      });
    for (std::thread& t : workers) t.join();
    elapsed_s = seconds_since(t0);
    out.resize(std::min(next.load(), arr.size()));
    return out;
  }

 private:
  void drain(const std::vector<arrival>& arr, std::vector<outcome>& out) {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> l(mu_);
        cv_.wait(l, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        i = queue_.front();
        queue_.pop_front();
      }
      execute(arr[i], out[i]);
    }
  }

  void execute(const arrival& a, outcome& o) {
    o.started = clock_type::now();
    try {
      spans::op root("bench.request", "bench", a.id, a.traced);
      if (a.k == kind::mutation) {
        const std::vector<graph::edge> pair{{a.a, a.b}, {a.b, a.a}};
        std::lock_guard<std::mutex> g(mut_mu_);
        {
          spans::scope sp("serve.apply_edges", "serve");
          srv_.apply_edges(pair, a.id);
        }
        muts_.push_back({srv_.version(), pair});
      } else {
        spans::scope sp("serve.query", "serve");
        o.result = srv_.query(to_query(a));
      }
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    o.finished = clock_type::now();
  }

  serve::server& srv_;
  std::mutex& mut_mu_;
  std::vector<mutation_rec>& muts_;
  std::mutex mu_;
  std::deque<std::size_t> queue_;  // guarded by mu_
  bool done_ = false;              // guarded by mu_
  std::condition_variable cv_;
};

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Latency of the queries of one phase, from their due times.
std::vector<double> query_latencies(const std::vector<arrival>& arr,
                                    const std::vector<outcome>& out) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < arr.size(); ++i)
    if (arr[i].k != kind::mutation) ms.push_back(ms_between(out[i].due, out[i].finished));
  return ms;
}

/// Requests due by the phase's last due time but not yet started then.
std::size_t backlog_at_end(const std::vector<outcome>& out) {
  if (out.empty()) return 0;
  const auto last_due = out.back().due;
  std::size_t waiting = 0;
  for (const outcome& o : out)
    if (o.started > last_due) ++waiting;
  return waiting;
}

/// Checks every answer against a sequential oracle on a replica of the
/// graph replayed to the topology version the answer is pinned to.
void check_answers(const inputs& in, dpg::ampp::rank_t ranks, std::vector<mutation_rec> muts,
                   const std::vector<const arrival*>& arr,
                   const std::vector<const outcome*>& out, report& rep) {
  std::sort(muts.begin(), muts.end(),
            [](const mutation_rec& a, const mutation_rec& b) {
              return a.version_after < b.version_after;
            });
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (arr[i]->k == kind::mutation) {
      rep.check(out[i]->error.empty() ? "" : "apply_edges threw: " + out[i]->error);
    } else if (!out[i]->error.empty() || out[i]->result == nullptr) {
      rep.check("query threw: " + out[i]->error);
    } else {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out[a]->result->graph_version < out[b]->result->graph_version;
  });
  distributed_graph replica(in.n, in.edges, graph::distribution::cyclic(in.n, ranks));
  const auto w = hashed_weights(replica, in.weight_seed, kMaxWeight);
  std::size_t applied = 0;
  std::uint64_t at_version = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> memo;
  for (const std::size_t i : order) {
    const arrival& a = *arr[i];
    const serve::session_result& r = *out[i]->result;
    if (r.graph_version != at_version) {
      while (applied < muts.size() && muts[applied].version_after <= r.graph_version)
        replica.apply_edges(muts[applied++].added);
      at_version = r.graph_version;
      memo.clear();
    }
    const std::uint64_t key = static_cast<std::uint64_t>(a.k) << 56 | a.a;
    auto it = memo.find(key);
    if (it == memo.end()) {
      std::vector<std::uint64_t> want(in.n);
      if (a.k == kind::sssp) {
        const std::vector<double> d = algo::dijkstra(replica, w, a.a);
        for (vertex_id v = 0; v < in.n; ++v) want[v] = std::bit_cast<std::uint64_t>(d[v]);
      } else if (a.k == kind::bfs) {
        const std::vector<std::int64_t> l = algo::bfs_levels(replica, a.a);
        for (vertex_id v = 0; v < in.n; ++v)
          want[v] = l[v] < 0 ? in.n : static_cast<std::uint64_t>(l[v]);
      } else {
        const std::vector<vertex_id> c = algo::cc_union_find(replica);
        want.assign(c.begin(), c.end());
      }
      it = memo.emplace(key, std::move(want)).first;
    }
    rep.check(check_words(std::string(serve::algorithm_name(r.algo)) + " query " +
                              std::to_string(a.id),
                          r.values, it->second));
  }
}

}  // namespace

void run_serve(const options& opt, report& rep) {
  const unsigned scale = opt.smoke ? 8 : 10;
  const dpg::ampp::rank_t ranks = 2;
  const int setups = opt.smoke ? 2 : 5;
  graph::rmat_params rp;
  rp.scale = scale;
  rp.edge_factor = 16;
  inputs in{vertex_id{1} << scale, graph::symmetrize(graph::rmat(rp, opt.seed)), {},
            opt.seed ^ 0x77};
  {
    const distributed_graph probe(in.n, in.edges, graph::distribution::cyclic(in.n, ranks));
    in.hot = pick_sources(probe, opt.seed);
    if (in.hot.size() > kHotSources) in.hot.resize(kHotSources);
  }

  // Set-up: graph, weights, server, and both warm sessions per algorithm
  // (one per dispatch thread), each run once.
  struct served {
    std::unique_ptr<distributed_graph> g;
    std::unique_ptr<pmap::edge_property_map<double>> w;
    std::unique_ptr<serve::server> srv;
  };
  served s;
  std::vector<double> setup_s, graph_ms, session_ms;
  for (int i = 0; i < setups; ++i) {
    s = served{};
    spans::op root("bench.setup", "bench", 0, true);
    const auto t0 = clock_type::now();
    {
      spans::scope sp("graph.build", "graph");
      s.g = std::make_unique<distributed_graph>(in.n, in.edges,
                                                graph::distribution::cyclic(in.n, ranks));
    }
    graph_ms.push_back(ms_since(t0));
    s.w = std::make_unique<pmap::edge_property_map<double>>(
        hashed_weights(*s.g, in.weight_seed, kMaxWeight));
    serve::server_config cfg;
    cfg.machine.n_ranks = ranks;
    cfg.max_warm_sessions = kDispatchers;
    s.srv = std::make_unique<serve::server>(*s.g, *s.w, cfg);
    std::vector<serve::session_pool::lease> leases;
    const auto t1 = clock_type::now();
    for (const serve::algorithm a :
         {serve::algorithm::sssp, serve::algorithm::bfs, serve::algorithm::cc})
      for (unsigned k = 0; k < kDispatchers; ++k) {
        spans::scope sp("serve.pool.checkout", "serve");
        leases.push_back(s.srv->pool().checkout(a));
      }
    session_ms.push_back(ms_since(t1));
    for (const auto& l : leases) {
      spans::scope sp("algo.warmup", "algo");
      l->run({.source = in.hot[0], .delta = kDelta});
    }
    leases.clear();  // back to the pool, warm
    setup_s.push_back(seconds_since(t0));
  }

  std::mutex mut_mu;
  std::vector<mutation_rec> muts;
  dispatcher loop(*s.srv, mut_mu, muts);

  // Untraced: 60 qps for 65% of the run (the latency figures), the rate
  // ladder 80/100/120 qps for 5% each, then the closed-loop capacity for
  // 20%. Traced: 60 qps throughout, alternating traced and untraced blocks
  // of one second.
  const std::vector<double> rates =
      opt.trace ? std::vector<double>{60.0} : std::vector<double>{60.0, 80.0, 100.0, 120.0};
  std::vector<std::vector<arrival>> phases;
  std::vector<std::vector<outcome>> results;
  std::uint64_t next_id = 1;
  for (std::size_t p = 0; p < rates.size(); ++p) {
    const double share = opt.trace ? 1.0 : p == 0 ? 0.65 : 0.05;
    const auto count = static_cast<std::size_t>(share * opt.seconds * rates[p]);
    phases.push_back(schedule(in, rates[p], std::max<std::size_t>(count, 20), next_id,
                              opt.seed * 131 + p, opt.trace ? 60 : 0));
    next_id += phases.back().size();
    results.push_back(loop.open(phases.back()));
  }
  double capacity_qps = 0.0;
  if (!opt.trace) {
    // Enough requests for any plausible capacity; the unissued tail is cut.
    std::vector<arrival> burst =
        schedule(in, 1.0, static_cast<std::size_t>(opt.seconds * 500) + 100, next_id,
                 opt.seed * 131 + rates.size(), 0);
    double elapsed_s = 0.0;
    std::vector<outcome> done = loop.closed(burst, 0.2 * opt.seconds, elapsed_s);
    burst.resize(done.size());
    capacity_qps = static_cast<double>(query_latencies(burst, done).size()) / elapsed_s;
    phases.push_back(std::move(burst));
    results.push_back(std::move(done));
  }

  // Oracle over every request of every phase.
  std::vector<const arrival*> all_arr;
  std::vector<const outcome*> all_out;
  for (std::size_t p = 0; p < phases.size(); ++p)
    for (std::size_t i = 0; i < phases[p].size(); ++i) {
      all_arr.push_back(&phases[p][i]);
      all_out.push_back(&results[p][i]);
    }
  check_answers(in, ranks, muts, all_arr, all_out, rep);

  // Classify every query by the server's per-tenant (= per-request) row.
  std::vector<double> hit_us, traced_ms, untraced_ms, queue_ms, lag_ms, mutation_ms;
  std::vector<std::size_t> solved;
  std::uint64_t queries = 0, hits = 0, merged = 0, solves = 0;
  layer_tally tally;
  for (std::size_t i = 0; i < all_arr.size(); ++i) {
    const arrival& a = *all_arr[i];
    const outcome& o = *all_out[i];
    lag_ms.push_back(ms_between(o.due, o.enqueued));
    queue_ms.push_back(ms_between(o.due, o.started));
    if (a.k == kind::mutation) {
      mutation_ms.push_back(ms_between(o.started, o.finished));
      continue;
    }
    (a.traced ? traced_ms : untraced_ms).push_back(ms_between(o.due, o.finished));
    const dpg::obs::rollup::tenant_row row = s.srv->obs().tenant(a.id);
    ++queries;
    hits += row.cache_hits;
    merged += row.merged;
    if (row.cache_hits) hit_us.push_back(ms_between(o.started, o.finished) * 1e3);
    if (row.solves + row.repairs > 0 && o.result) {
      ++solves;
      solved.push_back(i);
      tally.add(o.result->stats_delta);
      if (a.k == kind::sssp)
        tally.add_strategy(o.result->rounds, o.result->modifications,
                           o.result->stats_delta.core.handler_invocations);
    }
  }

  const std::vector<double> lat60 = query_latencies(phases[0], results[0]);
  rep.info("query_p50_ms", median(lat60), "ms", lat60.size());
  double pct = 0.0;
  const double p99 = tail(lat60, &pct);
  rep.info("query_p99_ms", p99, "ms", lat60.size());
  rep.info("tail_percentile", pct, "%");
  rep.info("hit_share", ratio(hits, queries), "share", queries);
  rep.info("ranks", ranks, "count");
  rep.info("vertices", static_cast<double>(in.n), "count");
  rep.info("edges", static_cast<double>(in.edges.size()), "count");

  if (!opt.trace) {
    double max_qps = 0.0;
    for (std::size_t p = 0; p < rates.size(); ++p) {
      const std::vector<double> lat = query_latencies(phases[p], results[p]);
      const double t = tail(lat);
      const std::size_t backlog = backlog_at_end(results[p]);
      // A growing backlog: more requests queued at the rung's end than
      // arrive within the latency limit.
      const bool pass =
          t < kLatencyLimitMs && static_cast<double>(backlog) <= rates[p] * kLatencyLimitMs / 1e3;
      rep.info("rung_" + std::to_string(static_cast<int>(rates[p])) + "_tail_ms", t, "ms",
               lat.size());
      rep.info("rung_" + std::to_string(static_cast<int>(rates[p])) + "_backlog",
               static_cast<double>(backlog), "count");
      if (pass) max_qps = std::max(max_qps, rates[p]);
    }
    rep.info("max_qps", max_qps, "1/s");
    rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("p50_ms", median(lat60), "ms", lat60.size());
    rep.info("capacity_qps", capacity_qps, "1/s");
    rep.e2e("throughput_per_s", capacity_qps, "1/s");
    return;
  }

  // algo.solve_ms: a direct session run of sampled misses, on fresh
  // sessions over the final topology; the server's service time for the
  // same query minus that is the admission cost.
  std::vector<double> direct_ms, admission_ms;
  {
    algo::session_env env;
    env.g = s.g.get();
    env.weights = s.w.get();
    env.machine.n_ranks = ranks;
    std::map<serve::algorithm, std::unique_ptr<serve::solver_session>> direct;
    const std::size_t step = std::max<std::size_t>(1, solved.size() / 40);
    for (std::size_t j = 0; j < solved.size(); j += step) {
      const std::size_t i = solved[j];
      const serve::query q = to_query(*all_arr[i]);
      auto& sess = direct[q.algo];
      if (!sess) {
        sess = algo::make_solver_session(q.algo, env);
        sess->run(q.params);  // warm, like the pooled sessions
      }
      const auto t0 = clock_type::now();
      sess->run(q.params);
      direct_ms.push_back(ms_since(t0));
      admission_ms.push_back(ms_between(all_out[i]->started, all_out[i]->finished) -
                             direct_ms.back());
    }
  }

  const distributed_graph& g = *s.g;
  rep.layer("graph.build_ms", median(graph_ms), "ms");
  rep.layer("graph.overlay_bytes", static_cast<double>(g.overlay_bytes()), "bytes");
  rep.layer("graph.tombstone_bytes", static_cast<double>(g.tombstone_bytes()), "bytes");
  rep.layer("graph.delta_edges", static_cast<double>(g.total_delta_edges()), "count");
  rep.layer("graph.tombstoned_edges", static_cast<double>(g.total_tombstoned_edges()),
            "count");
  rep.layer("pattern.session_build_ms", median(session_ms), "ms");
  tally.emit(rep);
  rep.layer("algo.solve_ms", median(direct_ms), "ms");
  rep.layer("serve.hit_share", ratio(hits, queries), "share");
  rep.layer("serve.merged_share", ratio(merged, queries), "share");
  rep.layer("serve.solve_share", ratio(solves, queries), "share");
  rep.layer("serve.hit_us", median(hit_us), "us");
  rep.layer("serve.admission_ms", median(admission_ms), "ms");
  rep.layer("serve.mutation_ms", median(mutation_ms), "ms");
  rep.layer("serve.queue_wait_ms", tail(queue_ms), "ms");
  rep.layer("serve.sessions_created", static_cast<double>(s.srv->pool().created()), "count");
  rep.layer("serve.generator_lag_ms", tail(lag_ms), "ms");
  rep.layer("obs.trace_overhead_share",
            ratio(median(traced_ms) - median(untraced_ms), median(untraced_ms)), "share");
  measure_floors(ranks, opt.smoke ? 20 : 200, rep);
}

}  // namespace dpgbench
