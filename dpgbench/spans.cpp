#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace dpgbench::spans {
namespace {

struct record {
  const char* name;
  const char* layer;
  std::uint64_t id, parent, op;
  double start_us, end_us;
  std::uint32_t tid;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};
const auto g_t0 = std::chrono::steady_clock::now();

std::mutex g_mu;
std::vector<record> g_records;  // guarded by g_mu

thread_local bool tl_active = false;
thread_local std::uint64_t tl_op = 0;
thread_local std::uint64_t tl_parent = 0;
thread_local std::uint32_t tl_tid = g_next_tid.fetch_add(1);

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - g_t0)
      .count();
}

void push(const record& r) {
  std::lock_guard<std::mutex> g(g_mu);
  g_records.push_back(r);
}

/// Self time of every record: its duration minus the union of its
/// children's intervals, clipped to its own.
std::vector<double> self_times(const std::vector<record>& rs) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < rs.size(); ++i) index[rs[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(rs.size());
  for (const record& r : rs) {
    const auto it = index.find(r.parent);
    if (it != index.end()) kids[it->second].push_back({r.start_us, r.end_us});
  }
  std::vector<double> out(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, rs[i].start_us);
      hi = std::min(hi, rs[i].end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, rs[i].end_us - rs[i].start_us - covered);
  }
  return out;
}

std::vector<record> snapshot() {
  std::lock_guard<std::mutex> g(g_mu);
  return g_records;
}

}  // namespace

void enable() { g_enabled.store(true); }

op::op(const char* name, const char* layer, std::uint64_t op_id, bool traced)
    : prev_active_(tl_active), prev_op_(tl_op), name_(name), layer_(layer) {
  tl_active = traced && g_enabled.load(std::memory_order_relaxed);
  tl_op = op_id;
  if (!tl_active) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = tl_parent;
  tl_parent = id_;
  start_us_ = now_us();
}

op::~op() {
  if (id_ != 0) {
    push({name_, layer_, id_, parent_, tl_op, start_us_, now_us(), tl_tid});
    tl_parent = parent_;
  }
  tl_active = prev_active_;
  tl_op = prev_op_;
}

scope::scope(const char* name, const char* layer) : name_(name), layer_(layer) {
  if (!tl_active) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = tl_parent;
  tl_parent = id_;
  start_us_ = now_us();
}

scope::~scope() {
  if (id_ == 0) return;
  push({name_, layer_, id_, parent_, tl_op, start_us_, now_us(), tl_tid});
  tl_parent = parent_;
}

std::map<std::string, double> self_ms_by_layer() {
  const std::vector<record> rs = snapshot();
  const std::vector<double> self = self_times(rs);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < rs.size(); ++i) out[rs[i].layer] += self[i] / 1e3;
  return out;
}

std::size_t recorded() {
  std::lock_guard<std::mutex> g(g_mu);
  return g_records.size();
}

bool write(const std::string& path) {
  const std::vector<record> rs = snapshot();
  const std::vector<double> self = self_times(rs);
  std::vector<dpg::obs::trace_event> events(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    dpg::obs::trace_event& ev = events[i];
    ev.set_name(rs[i].name);
    ev.cat = rs[i].layer;
    ev.ts_us = static_cast<std::uint64_t>(rs[i].start_us);
    ev.dur_us = static_cast<std::uint64_t>(rs[i].end_us - rs[i].start_us);
    ev.tid = rs[i].tid;
    ev.n_args = 4;
    ev.args[0] = {"span", rs[i].id};
    ev.args[1] = {"parent", rs[i].parent};
    ev.args[2] = {"op", rs[i].op};
    ev.args[3] = {"self_us", static_cast<std::uint64_t>(self[i])};
  }
  // An idle tracer contributes no events of its own; it is the exporter.
  const dpg::obs::tracer exporter;
  return exporter.write_chrome_trace_file(path, events);
}

}  // namespace dpgbench::spans
