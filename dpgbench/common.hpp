// Shared plumbing of the dpg end-to-end benchmark: run options, the metric
// report main() prints, sample statistics, clocks, and the per-layer
// counter tally read from session_result::stats_delta.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace dpgbench {

using clock_type = std::chrono::steady_clock;

inline double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

inline double seconds_since(clock_type::time_point t0) {
  return ms_since(t0) / 1e3;
}

/// Command-line options of one benchmark run.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    ///< tiny inputs, for the benchmark's own test
  bool corrupt = false;  ///< flip one value before its oracle check (test)
  std::string trace_path;  ///< span file written by a traced run
};

/// One named metric with its unit and (for timings) its sample count.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload hands back to main(): the contract's end-to-end metrics
/// (untraced run), the per-layer metrics (traced run), the workload's own
/// named figures (printed, not gated), and the operation tally.
struct report {
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  std::vector<metric> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few oracle messages

  void e2e(const std::string& n, double v, const std::string& u, std::size_t s = 0) {
    end_to_end.push_back({n, v, u, s});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    per_layer.push_back({n, v, u, 0});
  }
  void info(const std::string& n, double v, const std::string& u, std::size_t s = 0) {
    detail.push_back({n, v, u, s});
  }
  /// Counts one checked operation; a non-empty `err` marks it failed.
  void check(const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(err);
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it (the median
/// when there are fewer than twenty samples); returns the value and sets
/// `pct` to the percentile used.
inline double tail(std::vector<double> v, double* pct = nullptr) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n >= 20 ? n - 11 : (n - 1) / 2;
  if (pct) *pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

/// Nearest-rank percentile (q in [0,1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Sums the transport counters of many solves and reports the ampp,
/// pattern and strategy per-layer metrics as per-solve means and shares.
struct layer_tally {
  dpg::obs::counters core{};
  std::uint64_t solves = 0;
  std::uint64_t strategy_solves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t modifications = 0;
  std::uint64_t strategy_invocations = 0;

  void add(const dpg::obs::stats_snapshot& d) {
    core = core + d.core;
    ++solves;
  }
  /// Strategy-level counters of one relaxation solve (sssp family).
  void add_strategy(std::uint64_t r, std::uint64_t mods, std::uint64_t invocations) {
    ++strategy_solves;
    rounds += r;
    modifications += mods;
    strategy_invocations += invocations;
  }
  void emit(report& rep) const;
};

}  // namespace dpgbench
