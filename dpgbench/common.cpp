#include <sys/resource.h>

#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace dpgbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void layer_tally::emit(report& rep) const {
  const double n = static_cast<double>(solves == 0 ? 1 : solves);
  const auto per = [&](std::uint64_t x) { return static_cast<double>(x) / n; };
  rep.layer("pattern.batch_share", ratio(core.batch_records, core.handler_invocations),
            "share");
  rep.layer("pattern.records_per_kernel", ratio(core.batch_records, core.batch_kernels_run),
            "count");
  rep.layer("ampp.messages", per(core.messages_sent), "count");
  rep.layer("ampp.envelopes", per(core.envelopes_sent), "count");
  rep.layer("ampp.wire_bytes", per(core.wire_bytes_sent), "bytes");
  rep.layer("ampp.records_per_envelope", ratio(core.messages_sent, core.envelopes_sent),
            "count");
  rep.layer("ampp.reduction_absorbed_share",
            ratio(core.cache_hits, core.cache_hits + core.messages_sent), "share");
  rep.layer("ampp.td_rounds", per(core.td_rounds), "count");
  rep.layer("ampp.epochs", per(core.epochs), "count");
  rep.layer("ampp.control_messages", per(core.control_messages), "count");
  rep.layer("ampp.lane_skip_share",
            ratio(core.flush_lane_skips, core.flush_lane_skips + core.flush_lane_visits),
            "share");
  const double ns = static_cast<double>(strategy_solves == 0 ? 1 : strategy_solves);
  rep.layer("strategy.rounds", static_cast<double>(rounds) / ns, "count");
  rep.layer("strategy.modifications", static_cast<double>(modifications) / ns, "count");
  rep.layer("strategy.useful_share", ratio(modifications, strategy_invocations), "share");
}

void measure_floors(dpg::ampp::rank_t ranks, int reps, report& rep) {
  constexpr int kEpochs = 8;
  dpg::ampp::transport tp(dpg::ampp::machine_config{.n_ranks = ranks}, {});
  std::vector<double> empty_us, epochs_us;
  for (int i = 0; i < reps + 5; ++i) {
    auto t0 = clock_type::now();
    tp.run([](dpg::ampp::transport_context&) {});
    if (i >= 5) empty_us.push_back(ms_since(t0) * 1e3);
    t0 = clock_type::now();
    tp.run([](dpg::ampp::transport_context& ctx) {
      for (int e = 0; e < kEpochs; ++e) dpg::ampp::epoch ep(ctx);
    });
    if (i >= 5) epochs_us.push_back(ms_since(t0) * 1e3);
  }
  const double run_floor = median(empty_us);
  rep.layer("ampp.run_floor_us", run_floor, "us");
  rep.layer("ampp.epoch_floor_us", (median(epochs_us) - run_floor) / kEpochs, "us");
}

}  // namespace dpgbench
