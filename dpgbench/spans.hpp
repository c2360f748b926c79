// Benchmark-side spans: recorded around each call the benchmark makes into
// a dpg layer, never inside the library. Each span has a name, a layer
// category, start and end, its parent span and the id of the operation
// (query, batch or solve) it belongs to. Spans stay in memory and are
// written once, at the end, in the Chrome trace-event format obs exports;
// every event carries its self time (duration minus the part its child
// spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dpgbench::spans {

/// Turns recording on for the whole process (traced runs only).
void enable();

/// Root of one operation on the calling thread: child scopes opened while
/// it lives inherit `op_id`, and record only when `traced` is set (traced
/// runs alternate traced and untraced operations to measure overhead).
class op {
 public:
  op(const char* name, const char* layer, std::uint64_t op_id, bool traced);
  ~op();
  op(const op&) = delete;
  op& operator=(const op&) = delete;

 private:
  bool prev_active_;
  std::uint64_t prev_op_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
  const char* name_;
  const char* layer_;
};

/// A span around one call into a layer.
class scope {
 public:
  scope(const char* name, const char* layer);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
  const char* name_;
  const char* layer_;
};

/// Self time per layer category, in milliseconds, over every recorded span.
std::map<std::string, double> self_ms_by_layer();

/// Number of spans recorded so far.
std::size_t recorded();

/// Writes every span as a Chrome trace-event JSON file; false on I/O error.
bool write(const std::string& path);

}  // namespace dpgbench::spans
