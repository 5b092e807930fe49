// RAN Information Base (paper Sec. 4.3.3): all statistics and configuration
// of the underlying network entities, structured as a forest -- roots are
// agents, second level the cells of each agent, leaves the UEs of each
// (primary) cell. Kept entirely in memory. Only the RIB Updater writes it
// (single-writer discipline); applications read through const access.
// As in the paper's implementation, no high-level abstraction is layered on
// top: raw reports are exposed to the northbound API.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lte/types.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace flexran::ctrl {

/// Master-local identifier for a connected agent.
using AgentId = std::uint32_t;

/// Control-channel session state of an agent, as the master sees it
/// (docs/fault_tolerance.md): up -> stale (silent too long) -> down
/// (transport lost or silent past the disconnect timeout) -> resyncing
/// (heard again; configuration being re-fetched) -> up.
enum class SessionState : std::uint8_t { up, stale, down, resyncing };

const char* to_string(SessionState state);

struct UeNode {
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::UeConfig config;
  proto::UeStatsReport stats;
  sim::TimeUs last_update = 0;
  /// Smoothed CQI (exponential moving average) -- what the MEC app uses.
  util::Ewma cqi_avg{0.15};
};

struct CellNode {
  lte::CellConfig config;
  proto::CellStatsReport stats;
  sim::TimeUs last_update = 0;
  std::map<lte::Rnti, UeNode> ues;
};

struct AgentNode {
  AgentId id = 0;
  lte::EnbId enb_id = 0;
  std::string name;
  std::vector<std::string> capabilities;
  std::map<lte::CellId, CellNode> cells;

  /// The UE's node in whichever cell holds it; nullptr when absent.
  const UeNode* find_ue(lte::Rnti rnti) const;
  UeNode* find_ue(lte::Rnti rnti);
  /// The UE's node under `cell_id`. A node held under another cell moves
  /// there with its stats, so one RNTI never has two nodes; an unknown RNTI
  /// gets a fresh node.
  UeNode& place_ue(lte::CellId cell_id, lte::Rnti rnti);
  /// Removes the UE from every cell (no-op when absent).
  void erase_ue(lte::Rnti rnti);
  std::size_t ue_count() const;

  /// Latest subframe the agent reported (sync ticks / stats replies) and
  /// when it arrived -- the master's view of agent time, which trails real
  /// agent time by the one-way control latency (paper Sec. 5.3).
  std::int64_t last_subframe = 0;
  sim::TimeUs last_subframe_at = 0;
  /// Smoothed RTT estimate from echo exchanges.
  double rtt_estimate_us = 0.0;

  /// Liveness: when the last message of any kind arrived (the master's
  /// timeout sweep drives the session state from this; see
  /// MasterConfig::agent_timeout_us).
  sim::TimeUs last_heard = 0;

  /// Full session lifecycle -- the single source of truth for liveness.
  SessionState state = SessionState::up;
  /// The master currently considers the agent unreachable. Well-behaved
  /// apps skip stale agents (their fallback VSFs have control).
  bool is_stale() const { return state == SessionState::stale || state == SessionState::down; }
  /// Session epoch learned from the agent's hello; messages carrying an
  /// older epoch are fenced by the RIB updater.
  std::uint32_t epoch = 0;
  /// How many times this agent re-established its session.
  std::uint32_t reconnects = 0;
};

class Rib {
 public:
  AgentNode& agent(AgentId id) { return agents_[id]; }
  const AgentNode* find_agent(AgentId id) const;
  const UeNode* find_ue(AgentId id, lte::Rnti rnti) const;
  UeNode* mutable_ue(AgentId id, lte::Rnti rnti);
  void remove_agent(AgentId id) { agents_.erase(id); }

  const std::map<AgentId, AgentNode>& agents() const { return agents_; }
  std::size_t agent_count() const { return agents_.size(); }
  std::size_t ue_count() const;

  /// Approximate resident size of the RIB (Fig. 8 memory series).
  std::size_t approx_bytes() const;

 private:
  std::map<AgentId, AgentNode> agents_;
};

}  // namespace flexran::ctrl
