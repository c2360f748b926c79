// The three workloads. Each builds its inputs from the seed, sets up,
// measures for the requested seconds, checks every answer, and fills the
// report: end-to-end metrics untraced, per-layer metrics when traced.
#pragma once

#include "ampp/types.hpp"
#include "common.hpp"

namespace dpgbench {

/// One analyst, a closed loop of batches of analytics on a large graph.
void run_solve(const options& opt, report& rep);
/// Many tenants, an open loop of queries and rare mutations on one server.
void run_serve(const options& opt, report& rep);
/// A closed-loop ingest of mixed batches, each followed by warm repairs.
void run_stream(const options& opt, report& rep);

/// ampp.run_floor_us (an empty transport::run) and ampp.epoch_floor_us (one
/// empty epoch), medians over `reps` repetitions on `ranks` ranks.
void measure_floors(dpg::ampp::rank_t ranks, int reps, report& rep);

}  // namespace dpgbench
