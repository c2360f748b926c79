// dpgbench: the dpg end-to-end benchmark program.
//
//   dpgbench --workload solve|serve|stream --seed N --seconds S --trace 0|1
//            [--smoke] [--corrupt] [--trace-out PATH]
//
// Runs one workload, checks every answer against a sequential oracle, and
// prints one line per metric ("metric <name> <value> <unit> n=<samples>")
// followed, as the last line, by one JSON object: with --trace 0 it holds
// the end-to-end metrics, with --trace 1 the per-layer ones. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace dpgbench {

namespace {

/// Every end-to-end metric, in print order, with its unit.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"p50_ms", "ms"}, {"throughput_per_s", "1/s"},
};

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not exercise a metric's layer reports it as 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.build_ms", "ms"},
    {"graph.overlay_bytes", "bytes"},
    {"graph.tombstone_bytes", "bytes"},
    {"graph.delta_edges", "count"},
    {"graph.tombstoned_edges", "count"},
    {"pattern.session_build_ms", "ms"},
    {"pattern.batch_share", "share"},
    {"pattern.records_per_kernel", "count"},
    {"ampp.messages", "count"},
    {"ampp.envelopes", "count"},
    {"ampp.wire_bytes", "bytes"},
    {"ampp.records_per_envelope", "count"},
    {"ampp.reduction_absorbed_share", "share"},
    {"ampp.td_rounds", "count"},
    {"ampp.epochs", "count"},
    {"ampp.control_messages", "count"},
    {"ampp.lane_skip_share", "share"},
    {"ampp.run_floor_us", "us"},
    {"ampp.epoch_floor_us", "us"},
    {"strategy.rounds", "count"},
    {"strategy.modifications", "count"},
    {"strategy.useful_share", "share"},
    {"algo.repair_sssp_ms", "ms"},
    {"algo.repair_cc_ms", "ms"},
    {"algo.repair_kcore_ms", "ms"},
    {"algo.warm_share", "share"},
    {"algo.solve_ms", "ms"},
    {"algo.sssp_cost", "ratio"},
    {"algo.bfs_cost", "ratio"},
    {"algo.cc_cost", "ratio"},
    {"serve.hit_share", "share"},
    {"serve.merged_share", "share"},
    {"serve.solve_share", "share"},
    {"serve.hit_us", "us"},
    {"serve.admission_ms", "ms"},
    {"serve.mutation_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.sessions_created", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"obs.trace_overhead_share", "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dpgbench: %s\nusage: dpgbench --workload solve|serve|stream --seed N "
               "--seconds S --trace 0|1 [--smoke] [--corrupt] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--trace-out") o.trace_path = value();
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--corrupt") o.corrupt = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload != "solve" && o.workload != "serve" && o.workload != "stream")
    usage("--workload must be solve, serve or stream");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Puts the metrics of `want` in order, adding any the workload left out as
/// 0; returns false if a reported value is not finite.
bool canonical(std::vector<metric>& got,
               const std::pair<const char*, const char*>* want, std::size_t count,
               bool fill_missing) {
  std::map<std::string, metric> by_name;
  for (const metric& m : got) by_name[m.name] = m;
  std::vector<metric> out;
  bool ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    auto it = by_name.find(want[i].first);
    if (it == by_name.end()) {
      if (!fill_missing) {
        std::fprintf(stderr, "dpgbench: metric %s not measured\n", want[i].first);
        ok = false;
        continue;
      }
      out.push_back({want[i].first, 0.0, want[i].second, 0});
      continue;
    }
    it->second.unit = want[i].second;
    if (!std::isfinite(it->second.value)) {
      std::fprintf(stderr, "dpgbench: metric %s is not finite\n", want[i].first);
      ok = false;
    }
    out.push_back(it->second);
  }
  got = std::move(out);
  return ok;
}

void print_metric(const char* kind, const metric& m) {
  std::printf("%s %s %.6g %s", kind, m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples) std::printf(" n=%zu", m.samples);
  std::printf("\n");
}

}  // namespace
}  // namespace dpgbench

int main(int argc, char** argv) {
  using namespace dpgbench;
  const options opt = parse(argc, argv);
  if (opt.trace) spans::enable();
  if (opt.corrupt) arm_corruption();

  report rep;
  try {
    if (opt.workload == "solve") run_solve(opt, rep);
    else if (opt.workload == "serve") run_serve(opt, rep);
    else run_stream(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpgbench: %s workload aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (rep.attempted == 0) {
    std::fprintf(stderr, "dpgbench: no operation completed\n");
    return 1;
  }
  for (const std::string& f : rep.failures) std::fprintf(stderr, "oracle: %s\n", f.c_str());
  rep.info("failed_share", ratio(rep.failed, rep.attempted), "share", rep.attempted);

  std::vector<metric>& gated = opt.trace ? rep.per_layer : rep.end_to_end;
  const bool ok = opt.trace ? canonical(gated, kPerLayer, std::size(kPerLayer), true)
                            : canonical(gated, kEndToEnd, std::size(kEndToEnd), false);
  if (!ok) return 1;

  if (opt.trace) {
    for (const auto& [layer, ms] : spans::self_ms_by_layer())
      rep.info("self_ms." + layer, ms, "ms");
    if (!opt.trace_path.empty()) {
      if (!spans::write(opt.trace_path)) return 1;
      std::printf("spans %zu written to %s\n", spans::recorded(), opt.trace_path.c_str());
    }
  }
  for (const metric& m : rep.detail) print_metric("figure", m);
  for (const metric& m : gated) print_metric("metric", m);

  // The result line: every digit of each value (%.17g round-trips).
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < gated.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                gated[i].name.c_str(), gated[i].value, gated[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}
