#include "apps/monitoring.h"

namespace flexran::apps {

void MonitoringApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  if (period_ > 0 && cycle % period_ != 0) return;
  ++snapshots_;
  summaries_.clear();
  const auto rib = api.rib_snapshot();
  for (const auto& [id, agent_node] : rib->agents()) {
    const auto& agent = *agent_node;
    AgentSummary summary;
    double cqi_sum = 0.0;
    for (const auto& [cell_id, cell] : agent.cells) {
      (void)cell_id;
      for (const auto& [rnti, ue] : cell.ues) {
        (void)rnti;
        ++summary.ue_count;
        cqi_sum += ue.stats.wb_cqi;
        summary.total_queue_bytes += ue.stats.rlc_queue_bytes;
        summary.total_dl_bytes += ue.stats.dl_bytes_delivered;
      }
    }
    if (summary.ue_count > 0) summary.mean_cqi = cqi_sum / static_cast<double>(summary.ue_count);
    summaries_[id] = summary;
  }
}

}  // namespace flexran::apps
