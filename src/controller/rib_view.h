// High-level northbound abstractions over the raw RIB. The paper notes
// (Secs. 4.3.3 and 7.3) that its implementation "does not provide any
// high-level abstraction for the stored information, revealing raw data to
// the northbound API" and lists such abstractions as future work -- this is
// that layer: flattened UE summaries, per-cell load, and a stateful
// analytics sampler that turns the RIB's cumulative counters into rates.
#pragma once

#include <optional>
#include <vector>

#include "controller/rib_snapshot.h"

namespace flexran::ctrl {

/// One row of the flattened network view.
struct UeSummary {
  AgentId agent = 0;
  lte::CellId cell = 0;
  lte::Rnti rnti = lte::kInvalidRnti;
  int cqi = 0;
  double cqi_avg = 0.0;
  std::uint32_t queue_bytes = 0;
  std::uint64_t dl_bytes_delivered = 0;
  /// Best non-serving cell by RSRP, if the UE reports measurements.
  std::optional<lte::CellId> best_neighbor;
  double best_neighbor_rsrp_dbm = -200.0;
};

/// Flattens the agent->cell->UE forest into summaries. Every reader goes
/// through a snapshot; wrap a bare Rib with RibSnapshot::capture.
std::vector<UeSummary> summarize_ues(const RibSnapshot& snapshot);

/// Instantaneous DL PRB utilization of a cell in [0, 1].
double cell_dl_utilization(const CellNode& cell);

/// Agent with the fewest connected UEs (simple admission heuristic);
/// nullopt when the RIB is empty.
std::optional<AgentId> least_loaded_agent(const RibSnapshot& snapshot);

/// Stateful analytics: call sample() periodically; rates are derived from
/// deltas of the RIB's cumulative per-UE byte counters.
class RibAnalytics {
 public:
  /// Samples the RIB snapshot at simulated time `now`.
  void sample(const RibSnapshot& snapshot, sim::TimeUs now);

  /// Smoothed delivered DL rate of a UE in Mb/s (0 until two samples).
  double ue_dl_rate_mbps(AgentId agent, lte::Rnti rnti) const;
  /// Smoothed DL PRB utilization of an agent's cell in [0, 1].
  double cell_utilization(AgentId agent, lte::CellId cell) const;
  std::size_t samples_taken() const { return samples_; }

 private:
  struct UeState {
    std::uint64_t last_bytes = 0;
    util::Ewma rate_mbps{0.3};
  };
  struct CellState {
    util::Ewma utilization{0.3};
  };

  std::map<std::pair<AgentId, lte::Rnti>, UeState> ue_state_;
  std::map<std::pair<AgentId, lte::CellId>, CellState> cell_state_;
  sim::TimeUs last_sample_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace flexran::ctrl
