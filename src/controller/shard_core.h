// FlexRAN master controller core (paper Sec. 4.3.3): the brain of the
// control plane. Owns the RIB, the RIB Updater (the single writer, fed from
// a pending-message queue), the Task Manager, the Event Notification
// Service, and the application registry, and terminates the FlexRAN
// protocol toward every connected agent. Custom design, deliberately not
// OpenFlow: radio resources don't fit the flow abstraction and real-time
// apps need per-TTI cycles.
//
// Since the two-tier split (docs/sharded_control.md) this class is the
// per-shard core: instantiable N times in one process, each instance owning
// a disjoint agent set, with a thin Coordinator (coordinator.h) assigning
// agents, aggregating snapshots and routing commands. A standalone instance
// (shard index unset) is the classic single master.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <set>

#include "controller/app.h"
#include "controller/arbiter.h"
#include "controller/checkpoint_sink.h"
#include "controller/overload.h"
#include "controller/rib.h"
#include "controller/rib_snapshot.h"
#include "controller/task_manager.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/checkpoint.h"
#include "obs/trace.h"
#include "proto/accounting.h"
#include "proto/wire.h"
#include "sim/simulator.h"

namespace flexran::ctrl {

/// Unified observability layer (docs/observability.md). Off by default:
/// with `enabled == false` the master neither stamps envelopes, records
/// latency, traces cycles nor registers probes -- behavior and wire
/// traffic are identical to a build without the layer (the repo's
/// `0/0 = off` convention).
struct ObsConfig {
  bool enabled = false;
  /// Control-loop trace ring capacity (most recent cycles kept verbatim).
  std::size_t trace_cycles = 4096;
  /// External registry to register instruments and probes in (nullptr = use
  /// the core's own). The Coordinator points every shard at one shared
  /// registry so a single export surface covers the whole process; the
  /// `shard` label (MasterConfig::shard) keeps identities unique. The
  /// registry must outlive the core.
  obs::MetricsRegistry* registry = nullptr;
};

/// Master crash recovery (docs/fault_tolerance.md "Master restart"). Off
/// by default: with `enabled == false` no incarnation epoch is stamped on
/// the wire, re-syncs are never paced, and no readiness barrier is raised
/// -- behavior and traffic are seed-identical (the `0/0 = off` convention).
/// `restart()` still works without the layer, just without fencing.
struct RecoveryConfig {
  /// Master incarnation epochs + admission pacing + app readiness gating.
  bool enabled = false;
  /// Token-bucket admission gate on concurrent full re-syncs after a
  /// restart: sustained admissions per second (0 = unpaced) and bucket
  /// capacity (how many re-syncs may be admitted back to back).
  double resync_tokens_per_s = 0.0;
  double resync_burst = 4.0;
  /// Retry-after hint piggybacked to agents whose re-sync was deferred by
  /// the gate (Envelope::retry_after_ms): how long they should hold their
  /// hello retries. The master re-syncs them itself when a token frees up.
  double resync_retry_after_ms = 50.0;
  /// Readiness barrier: recovery ends (the snapshot drops `recovering`)
  /// once this fraction of the expected fleet has re-synced...
  double readiness_quorum = 1.0;
  /// ...or after this long, whichever comes first (0 = quorum only; a
  /// permanently dead agent must not hold the barrier forever).
  sim::TimeUs readiness_timeout_us = sim::from_ms(2000.0);
  /// Warm checkpoint: serialize durable master state to `checkpoint_sink`
  /// every `checkpoint_period_us` (0 = never write). A checkpoint found in
  /// the sink at construction or restart() is loaded, cutting recovery to
  /// a delta re-sync (stats + subscriptions, no config fetch).
  sim::TimeUs checkpoint_period_us = 0;
  std::shared_ptr<CheckpointSink> checkpoint_sink;
};

struct MasterConfig {
  TaskManagerConfig task_manager;
  /// Shard index under a Coordinator (-1 = standalone master). When set,
  /// every metric and probe this core registers carries a `shard` label so
  /// multiple cores can share one MetricsRegistry without name collisions.
  int shard = -1;
  /// On hello: automatically fetch eNodeB/UE/LC configuration.
  bool auto_configure = true;
  /// On hello: install this statistics request (nullopt = none).
  std::optional<proto::StatsRequest> default_stats_request;
  /// On hello: subscribe to these events at the agent.
  std::vector<proto::EventType> subscribe_events;
  /// Send an echo request every this many cycles for RTT estimation
  /// (0 = never).
  std::int64_t echo_period_cycles = 1000;
  /// Reject DL MAC configs whose PRBs overlap a decision another app
  /// already issued for the same (agent, subframe) -- paper Sec. 7.3.
  bool conflict_resolution = true;
  /// Mark an agent stale when nothing has been heard from it for this long
  /// (0 = never). Stale agents are skipped by well-behaved apps.
  sim::TimeUs agent_timeout_us = 0;
  /// Declare a stale agent fully disconnected (state -> down, pending
  /// updates purged, in-flight requests failed, AGENT_DISCONNECTED emitted)
  /// after this much silence (0 = never). Transport-notified disconnects
  /// take this path immediately.
  sim::TimeUs agent_disconnect_timeout_us = 0;
  /// Track config/stats requests by xid and retry them when no reply
  /// arrives within this timeout (doubles per retry). 0 = fire-and-forget
  /// (the seed behavior).
  sim::TimeUs request_timeout_us = 0;
  /// Retries before a tracked request is reported failed via a
  /// request_timeout event.
  int request_max_retries = 2;
  /// Overload protection (docs/overload_protection.md): bounded ingest
  /// queue, watchdog thresholds and report-throttle backoff. The layer is
  /// entirely off (seed behavior) until `overload.ingest` has a budget.
  OverloadConfig overload;
  /// Metrics registry + control-loop tracing + Envelope timestamp echo
  /// (docs/observability.md). Off = seed-identical.
  ObsConfig obs;
  /// Master crash recovery (docs/fault_tolerance.md "Master restart").
  /// Off = seed-identical.
  RecoveryConfig recovery;
};

class ShardCore final : public NorthboundApi {
 public:
  ShardCore(sim::Simulator& sim, MasterConfig config);
  /// Stops the worker pool before the application registry is destroyed
  /// (member order would otherwise tear apps down under running workers).
  ~ShardCore() override;

  /// Registers the master-side endpoint of an agent connection. Returns the
  /// agent id (also the RIB root key). `id` pins an explicit agent id --
  /// the Coordinator allocates ids globally so they stay unique across
  /// shards; 0 (the default) keeps the core's own sequential allocation.
  AgentId add_agent(net::Transport& transport, AgentId id = 0);
  void remove_agent(AgentId id);

  /// Runs one task-manager cycle; wire this to the TtiTicker (real-time
  /// mode) or call it at any coarser period (non-RT mode).
  void run_cycle();

  /// Simulates a master process crash + immediate restart in place
  /// (docs/fault_tolerance.md "Master restart"): every piece of volatile
  /// state -- RIB contents, queued and in-flight messages, pending
  /// policies, event queue -- is dropped, exactly what a real restart
  /// loses. The transport registry survives (a restarted master re-accepts
  /// its listening sockets; here the agents' connections stay attached
  /// under the same ids). With recovery enabled the incarnation epoch is
  /// bumped and announced so agents fence stale traffic and re-hello; a
  /// checkpoint in the configured sink is loaded for a warm (delta)
  /// recovery. Note: the incarnation is monotonic in-memory; a real
  /// deployment would derive it from a durable source (the checkpoint
  /// provides that here).
  void restart();

  /// Forces a checkpoint save right now (normally driven by
  /// `recovery.checkpoint_period_us`). Errors if no sink is configured.
  util::Status save_checkpoint();

  // ---- failover / drain (docs/sharded_control.md "Shard failover") -----------
  /// Live durable state of one agent -- the per-agent slice of
  /// build_checkpoint(), read from the live RIB instead of the checkpoint
  /// sink, so a planned drain hands over state newer than the last save.
  proto::CheckpointAgent export_agent(AgentId id) const;
  /// Takes ownership of an orphaned (or drained) agent's connection. With
  /// `durable` the agent's checkpointed state is imported for a warm delta
  /// re-sync; without it the adoption is cold (full config fetch on the
  /// agent's next message or hello). The agent starts down and is walked
  /// through the normal paced re-sync admission; with recovery enabled the
  /// readiness barrier is raised until the adopted set is serviceable.
  void adopt_agent(net::Transport& transport, AgentId id,
                   const proto::CheckpointAgent* durable = nullptr);
  /// Raises the incarnation to at least `floor` (no-op below the current
  /// value, or while recovery is disabled). An adopter must not fence
  /// behind its dead predecessor: agents drop frames carrying a strictly
  /// older incarnation than the last one they saw, so the survivor resumes
  /// at or above the dead shard's epoch.
  void bump_incarnation(std::uint32_t floor);
  /// Chaos/test fault hook: make every subsequent run_cycle() throw
  /// (detection via exception containment in the Coordinator) or return
  /// immediately without advancing (detection via the cycle-stall
  /// watchdog).
  enum class CycleFault { none, throwing, stalled };
  void set_cycle_fault(CycleFault fault) { cycle_fault_ = fault; }
  /// The configured checkpoint sink (nullptr = none). The Coordinator reads
  /// a dead shard's last save through this during failover -- explicitly,
  /// not via restart(), which rejects wrong-shard checkpoints.
  const std::shared_ptr<CheckpointSink>& checkpoint_sink() const {
    return config_.recovery.checkpoint_sink;
  }
  /// Publishes the current RIB state immediately (normally end-of-cycle).
  /// The Coordinator calls this after topology surgery -- remove, adopt,
  /// drain -- so the composite union never shows a moved agent in two
  /// places (or a removed one at all) while the shard idles between
  /// cycles. Coordinator-thread only, like run_cycle().
  void publish_now() { publish_snapshot(); }
  /// Checkpoints refused at restore time (wrong shard stamp or a payload
  /// that fails decoding).
  std::uint64_t checkpoints_rejected() const { return checkpoints_rejected_; }

  /// Joins the in-flight application slot (if any) and flushes its command
  /// batches. With a pipelined task manager (workers > 0) a cycle's
  /// commands reach the wire one cycle later; call this before asserting
  /// on sent traffic or shutting transports down.
  void quiesce() { task_manager_.quiesce(); }

  // ---- application management ----------------------------------------------
  /// Registers an application; the master keeps ownership.
  App* add_app(std::unique_ptr<App> app);
  void remove_app(std::string_view name) { task_manager_.remove_app(name); }
  /// Observer the Coordinator installs to mirror this shard's events into
  /// the global (composite-view) application slot. Called on the
  /// coordinator thread during event dispatch, after the shard's own apps
  /// saw the event. One tap only; empty = off.
  void set_event_tap(std::function<void(const Event&)> tap) { event_tap_ = std::move(tap); }
  util::Status pause_app(std::string_view name) { return task_manager_.set_paused(name, true); }
  util::Status resume_app(std::string_view name) { return task_manager_.set_paused(name, false); }

  // ---- NorthboundApi ---------------------------------------------------------
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override { return snapshots_.current(); }
  sim::TimeUs now() const override { return sim_.now(); }
  std::int64_t agent_subframe(AgentId agent) const override;
  util::Status send_dl_mac_config(AgentId agent, const proto::DlMacConfig& config) override;
  util::Status send_ul_mac_config(AgentId agent, const proto::UlMacConfig& config) override;
  util::Status send_handover(AgentId agent, const proto::HandoverCommand& command) override;
  util::Status send_abs_config(AgentId agent, const proto::AbsConfig& config) override;
  util::Status send_carrier_restriction(AgentId agent,
                                        const proto::CarrierRestriction& config) override;
  util::Status send_drx_config(AgentId agent, const proto::DrxConfig& config) override;
  util::Status send_scell_command(AgentId agent, const proto::ScellCommand& command) override;
  util::Status request_stats(AgentId agent, const proto::StatsRequest& request) override;
  util::Status subscribe_events(AgentId agent, std::vector<proto::EventType> events,
                                bool enable) override;
  util::Status push_vsf(AgentId agent, const std::string& module, const std::string& vsf,
                        const std::string& implementation) override;
  util::Status send_policy(AgentId agent, const std::string& yaml) override;

  // ---- introspection ----------------------------------------------------------
  /// The live RIB. Coordinator-thread / test use only -- applications read
  /// through rib_snapshot() and never see this (single-writer rule).
  const Rib& rib() const { return rib_; }
  const TaskManager& task_manager() const { return task_manager_; }
  const ConflictArbiter& arbiter() const { return arbiter_; }
  /// Version of the latest published snapshot.
  std::uint64_t snapshot_version() const { return snapshots_.current()->version(); }
  /// Wall time of each snapshot publish (Fig. 8 companion series).
  const util::RunningStats& snapshot_publish_us() const { return snapshot_publish_time_; }
  /// Commands that reached the wire through batch flushes.
  std::uint64_t commands_flushed() const { return task_manager_.commands_flushed(); }
  /// Master -> agent signaling (Fig. 7b).
  const proto::SignalingAccountant& tx_accounting(AgentId agent) const;
  /// Agent -> master signaling as received (Fig. 7a).
  const proto::SignalingAccountant& rx_accounting(AgentId agent) const;
  std::size_t pending_updates() const { return pending_.size(); }
  std::uint64_t updates_applied() const { return updates_applied_; }
  std::size_t rib_bytes() const { return rib_.approx_bytes(); }
  std::int64_t cycles_run() const { return task_manager_.cycles_run(); }

  // ---- fault-tolerance introspection ----------------------------------------
  /// Requests currently awaiting a reply (xid-keyed table).
  std::size_t inflight_requests() const { return inflight_.size(); }
  std::uint64_t requests_completed() const { return requests_completed_; }
  std::uint64_t requests_retried() const { return requests_retried_; }
  /// Requests that exhausted their retries or died with a session.
  std::uint64_t requests_failed() const { return requests_failed_; }
  /// Queued/arriving updates dropped because they carried an older session
  /// epoch than the agent's current one.
  std::uint64_t fenced_updates() const { return fenced_updates_; }
  /// Messages whose envelope failed to decode (e.g. corrupted in flight).
  std::uint64_t rx_decode_errors() const { return rx_decode_errors_; }

  // ---- crash recovery (docs/fault_tolerance.md "Master restart") -------------
  /// Current master incarnation (0 while recovery is disabled).
  std::uint32_t incarnation() const { return incarnation_; }
  /// True while the readiness barrier is up: the RIB is still being
  /// rebuilt from agent re-syncs after a restart.
  bool recovering() const { return recovering_; }
  std::uint64_t master_restarts() const { return master_restarts_; }
  /// Re-syncs deferred by the admission gate / later admitted from the
  /// deferral queue.
  std::uint64_t resyncs_paced() const { return resyncs_paced_; }
  std::uint64_t resyncs_admitted() const { return resyncs_admitted_; }
  /// Agents currently parked in the deferral queue.
  std::size_t resyncs_waiting() const { return resync_queue_.size(); }
  /// Commands refused at the wire because their target had not re-synced
  /// with this incarnation yet.
  std::uint64_t commands_held() const { return commands_held_; }
  std::uint64_t checkpoints_saved() const { return checkpoints_saved_; }
  /// Checkpoint saves the sink refused (disk error, injected fault). Each
  /// failure schedules a backoff retry well inside the checkpoint period;
  /// the last good checkpoint is never clobbered (the sink's tmp+rename
  /// fails atomically).
  std::uint64_t checkpoint_write_failures() const { return checkpoint_write_failures_; }
  /// Last-known-good policies re-pushed as re-syncs completed.
  std::uint64_t policies_repushed() const { return policies_repushed_; }
  /// A checkpoint was loaded at construction or the last restart().
  bool checkpoint_loaded() const { return checkpoint_loaded_; }
  /// Agents that completed their re-sync since the last restart.
  std::size_t agents_resynced() const { return recovery_resynced_.size(); }
  /// Wall-clock (simulated) duration of the last completed recovery;
  /// 0 = none completed yet (or still recovering).
  sim::TimeUs last_recovery_duration() const {
    return recovery_ready_at_ == 0 ? 0 : recovery_ready_at_ - recovery_started_at_;
  }

  // ---- delegated-control containment (docs/delegation_safety.md) ------------
  /// Policies re-sent (rolled back to last-known-good) after an agent
  /// quarantined a VSF implementation.
  std::uint64_t policy_rollbacks() const { return policy_rollbacks_; }
  /// Policies an agent reported rejected (two-phase apply failed).
  std::uint64_t policies_rejected() const { return policies_rejected_; }
  /// Newest applied policy for the agent not implicated in a quarantine
  /// ("" = none recorded).
  std::string last_known_good_policy(AgentId agent) const;

  // ---- overload protection (docs/overload_protection.md) ---------------------
  OverloadState overload_state() const { return overload_monitor_.state(); }
  std::uint64_t overload_transitions() const { return overload_monitor_.transitions(); }
  /// Ingest-queue high-water marks (bounded by the configured budget).
  std::size_t pending_peak_messages() const { return pending_.peak_messages(); }
  std::size_t pending_peak_bytes() const { return pending_.peak_bytes(); }
  std::size_t pending_bytes() const { return pending_.bytes(); }
  /// Per-class ingest accounting (admitted / shed / coalesced).
  const net::ClassCounters& ingest_counters(net::TrafficClass cls) const {
    return pending_.counters(cls);
  }
  std::uint64_t ingest_shed() const { return pending_.total_shed(); }
  std::uint64_t ingest_coalesced() const { return pending_.total_coalesced(); }
  /// Unsheddable messages admitted past the budget (should stay 0).
  std::uint64_t ingest_budget_overflows() const { return pending_.budget_overflows(); }
  /// Cycles where the updater hit its slot budget with messages queued.
  std::uint64_t updater_saturations() const { return updater_saturations_; }
  /// Current report-period multiplier (1 = no throttling).
  std::uint32_t throttle_multiplier() const { return throttle_multiplier_; }
  /// Stats requests re-sent to renegotiate report periods.
  std::uint64_t throttle_renegotiations() const { return throttle_renegotiations_; }

  // ---- invariant inputs (src/verify/invariants.h) -----------------------------
  /// The configured ingest budget: the InvariantMonitor checks queue
  /// occupancy against it every coordinator cycle.
  const net::QueueBudget& ingest_budget() const { return config_.overload.ingest; }
  /// Commands that actually reached the wire toward an agent that had not
  /// re-synced with this incarnation while the readiness barrier was up.
  /// The gate in send_to makes this impossible by construction; this is a
  /// deliberately separate tripwire at the delivery point, so weakening
  /// the gate trips the monitor instead of silently shipping stale state.
  std::uint64_t commands_sent_unresynced() const { return commands_sent_unresynced_; }
  /// Handover commands sent while this shard was still recovering. Apps
  /// honor the snapshot readiness guard, so this stays 0.
  std::uint64_t handovers_while_recovering() const { return handovers_while_recovering_; }

  // ---- observability (docs/observability.md) ---------------------------------
  bool obs_enabled() const { return config_.obs.enabled; }
  /// Shard index under a Coordinator (-1 = standalone master).
  int shard() const { return config_.shard; }
  /// The unified metrics registry: the core's own, or the shared external
  /// one from ObsConfig::registry. Master-owned instruments and probes are
  /// registered only while `obs.enabled`; external components (scenario
  /// layer, benches) may register theirs at any time.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  /// Per-cycle control-loop traces (empty unless `obs.enabled`).
  const obs::TraceRing& cycle_traces() const { return trace_ring_; }
  /// End-to-end control latency (send -> agent -> echo -> RIB apply) for
  /// one agent; nullptr when observability is off or the agent is unknown.
  const obs::Histogram* control_latency(AgentId agent) const;

 private:
  struct AgentLink {
    net::Transport* transport = nullptr;  // not owned
    proto::SignalingAccountant tx;
    proto::SignalingAccountant rx;
    /// End-to-end control-latency histogram (registry-owned); non-null only
    /// while observability is enabled.
    obs::Histogram* latency = nullptr;
  };

  struct PendingUpdate {
    AgentId agent = 0;
    std::uint32_t epoch = 0;
    proto::Envelope envelope;
  };

  /// A tracked request awaiting its reply: retried with doubling timeout,
  /// failed (and surfaced as a request_timeout event) when retries run out
  /// or the session it belongs to ends.
  struct PendingRequest {
    AgentId agent = 0;
    proto::MessageType type = proto::MessageType::hello;
    std::uint32_t xid = 0;
    std::uint32_t epoch = 0;
    /// For stats requests: completion is matched on the reply's request_id
    /// (stats replies do not echo the xid).
    std::uint32_t request_id = 0;
    /// Signaling category and traffic class, captured from the real message
    /// body at enqueue time. The retry path must reuse these -- recomputing
    /// the category from the stored wire with an empty body misbuckets any
    /// body-dependent type, and a classless resend would bypass class-aware
    /// budget accounting.
    proto::MessageCategory category = proto::MessageCategory::agent_management;
    net::TrafficClass cls = net::TrafficClass::config;
    std::vector<std::uint8_t> wire;
    sim::TimeUs deadline = 0;
    sim::TimeUs timeout = 0;
    int attempts = 0;
  };

  /// Per-agent policy bookkeeping for rollback: policies sent but not yet
  /// acknowledged (keyed by envelope xid, which the agent echoes in its
  /// policy_applied / policy_rejected verdict) and a bounded history of
  /// applied policies, newest first.
  struct PolicyState {
    std::map<std::uint32_t, std::string> pending;
    std::deque<std::string> history;
  };
  static constexpr std::size_t kPolicyHistoryCap = 8;

  template <typename M>
  util::Status send_to(AgentId agent, const M& message, bool track = false);

  /// Metric/probe identity for this core: `name` with `labels`, plus a
  /// `shard` label when this core runs under a Coordinator (shard >= 0) so
  /// N cores sharing one registry stay distinguishable. With no labels and
  /// no shard index this is `name` verbatim (seed-identical identities).
  std::string probe_name(std::string name,
                         std::vector<std::pair<std::string, std::string>> labels = {}) const;

  /// Registers the master-level pull probes (ingest queue, task manager,
  /// overload, request table, cycle-trace stage stats). obs.enabled only.
  void register_obs_probes();
  /// Registers one agent's probes: signaling tx/rx per category and the
  /// end-to-end control-latency histogram. obs.enabled only.
  void register_agent_probes(AgentId id);
  /// Registers one app's wall-time probes. obs.enabled only.
  void register_app_probes(const std::string& name);

  /// RIB updater slot body: drains pending updates (bounded by budget in
  /// real-time mode via an update-count proxy).
  std::size_t drain_pending(std::int64_t budget_us);
  /// Overload watchdog step: runs after the drain, feeds the monitor one
  /// sample and reacts to state transitions (events, throttling).
  void overload_step();
  /// Moves the report-throttle multiplier and renegotiates every captured
  /// periodic stats request at the new period.
  void update_throttle(std::uint32_t multiplier);
  void renegotiate_reports();
  /// End of the updater slot: publishes this cycle's RibSnapshot (shares
  /// the subtrees of agents not in dirty_).
  void publish_snapshot();
  void apply_update(const PendingUpdate& update);
  void dispatch_events();
  void on_agent_hello(AgentId id, const proto::Hello& hello);

  // ---- session lifecycle ----------------------------------------------------
  /// Re-sends the configuration fetch, default stats request and event
  /// subscriptions (the hello handshake minus identity).
  void resync_agent(AgentId id);
  /// Transitions the agent to down: purges its queued updates, fails its
  /// in-flight requests and emits AGENT_DISCONNECTED.
  void mark_agent_down(AgentId id, const std::string& reason);
  /// Starts a new session at `epoch`: fences the old session's queued
  /// updates and in-flight requests.
  void begin_agent_session(AgentId id, std::uint32_t epoch);
  void purge_pending(AgentId id, std::uint32_t below_epoch);
  void fail_agent_requests(AgentId id, const char* reason);
  void complete_request(AgentId agent, std::uint32_t xid);
  void complete_stats_request(AgentId agent, std::uint32_t request_id);
  void sweep_requests();
  void emit_lifecycle_event(AgentId id, proto::EventType type, std::uint32_t xid = 0);
  /// Resolves a pending policy against the agent's verdict (applied ->
  /// history, rejected -> dropped).
  void note_policy_verdict(AgentId id, const proto::EventNotification& event);
  /// On vsf_quarantined: purges history entries naming the quarantined
  /// implementation and re-sends the newest survivor (last-known-good).
  void rollback_policy(AgentId id, const proto::EventNotification& event);

  // ---- crash recovery -------------------------------------------------------
  /// Admission-gated entry to resync_agent: consumes a token or parks the
  /// agent in the deferral queue with a retry-after hint. With pacing off
  /// (no token rate) this is resync_agent directly.
  void request_resync(AgentId id);
  /// Refills the token bucket from elapsed simulated time and admits
  /// deferred agents while tokens last.
  void admit_resyncs();
  void refill_resync_tokens();
  /// Resync-completion hook (resyncing -> up): records the time-to-resync,
  /// re-pushes the last-known-good policy during recovery and checks the
  /// readiness quorum.
  void mark_resynced(AgentId id);
  void finish_recovery(const char* how);
  /// Loads a checkpoint from the sink into the RIB (identities, configs,
  /// report registrations, policy histories); no-op without a sink or
  /// stored checkpoint.
  void load_checkpoint();
  void maybe_checkpoint();
  proto::MasterCheckpoint build_checkpoint() const;
  /// Installs one agent's checkpointed durable state into the RIB and the
  /// recovery bookkeeping (shared by load_checkpoint and adopt_agent).
  void import_durable(const proto::CheckpointAgent& saved);

  sim::Simulator& sim_;
  MasterConfig config_;
  Rib rib_;
  SnapshotStore snapshots_;
  /// Agents whose subtree changed since the last publish (their nodes are
  /// deep-copied into the next snapshot; everything else is shared).
  std::set<AgentId> dirty_agents_;
  /// An agent was added or removed since the last publish.
  bool rib_structure_changed_ = false;
  util::RunningStats snapshot_publish_time_;
  TaskManager task_manager_;
  ConflictArbiter arbiter_;

  std::map<AgentId, AgentLink> links_;
  /// Ingest queue feeding the RIB Updater. With an overload budget it
  /// sheds lowest-class-first and coalesces superseded periodic replies;
  /// without one it is a plain FIFO (seed behavior).
  net::ClassedQueue<PendingUpdate> pending_;
  std::deque<Event> event_queue_;
  /// Coordinator's event mirror (set_event_tap); invoked on the
  /// coordinator thread after local dispatch of each event.
  std::function<void(const Event&)> event_tap_;
  std::vector<std::unique_ptr<App>> apps_;
  std::map<std::uint32_t, PendingRequest> inflight_;
  std::map<AgentId, PolicyState> policies_;
  /// Periodic stats requests as originally issued, keyed by
  /// (agent, request_id) -- what throttling stretches and recovery
  /// restores.
  std::map<std::pair<AgentId, std::uint32_t>, proto::StatsRequest> original_reports_;
  OverloadMonitor overload_monitor_;

  AgentId next_agent_id_ = 1;
  std::uint32_t next_xid_ = 1;
  /// Reused send-path scratch encoder (docs/wire_fastpath.md): all sends run
  /// on the owning coordinator thread, so one arena per shard suffices and
  /// steady-state sends stop allocating.
  proto::WireEncoder send_enc_;
  std::uint64_t updates_applied_ = 0;
  std::uint64_t requests_completed_ = 0;
  std::uint64_t requests_retried_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t fenced_updates_ = 0;
  std::uint64_t rx_decode_errors_ = 0;
  std::uint64_t policy_rollbacks_ = 0;
  std::uint64_t policies_rejected_ = 0;
  std::uint64_t last_shed_total_ = 0;
  CycleFault cycle_fault_ = CycleFault::none;
  bool updater_saturated_cycle_ = false;
  std::uint64_t updater_saturations_ = 0;
  std::uint32_t throttle_multiplier_ = 1;
  std::uint64_t throttle_renegotiations_ = 0;
  /// Cycles of continued shedding while critical, toward the next
  /// multiplier doubling.
  std::size_t critical_shedding_cycles_ = 0;
  proto::SignalingAccountant empty_accounting_;

  // ---- crash recovery --------------------------------------------------------
  /// Incarnation epoch stamped on every send while recovery is enabled
  /// (starts at 1; restart() and checkpoint loads only move it up).
  std::uint32_t incarnation_ = 0;
  bool recovering_ = false;
  sim::TimeUs recovery_started_at_ = 0;
  sim::TimeUs recovery_ready_at_ = 0;
  /// The fleet the readiness barrier waits for: live links at restart plus
  /// agents restored from the checkpoint.
  std::set<AgentId> recovery_expected_;
  std::set<AgentId> recovery_resynced_;
  /// Agents whose configuration came from the checkpoint: their next
  /// re-sync is a delta (stats + subscriptions only).
  std::set<AgentId> warm_restored_;
  /// Admission gate: deferral queue (FIFO) + membership set for dedup and
  /// O(log n) retry-after stamping in send_to.
  std::deque<AgentId> resync_queue_;
  std::set<AgentId> resync_waiting_;
  double resync_tokens_ = 0.0;
  sim::TimeUs last_token_refill_ = 0;
  /// When each in-progress re-sync started (feeds the time-to-resync
  /// histogram and the scenario summary).
  std::map<AgentId, sim::TimeUs> resync_started_at_;
  sim::TimeUs last_checkpoint_at_ = 0;
  /// Non-zero after a failed checkpoint save: the next attempt happens
  /// after this backoff instead of a full period. Doubles per consecutive
  /// failure, capped at the checkpoint period; reset on success.
  sim::TimeUs checkpoint_backoff_us_ = 0;
  bool checkpoint_loaded_ = false;
  std::uint64_t master_restarts_ = 0;
  std::uint64_t resyncs_paced_ = 0;
  std::uint64_t resyncs_admitted_ = 0;
  std::uint64_t commands_held_ = 0;
  std::uint64_t commands_sent_unresynced_ = 0;
  std::uint64_t handovers_while_recovering_ = 0;
  std::uint64_t checkpoints_saved_ = 0;
  std::uint64_t checkpoint_write_failures_ = 0;
  std::uint64_t checkpoints_rejected_ = 0;
  std::uint64_t policies_repushed_ = 0;
  /// Time-to-resync histogram (registry-owned); non-null only while
  /// observability is enabled.
  obs::Histogram* resync_duration_ = nullptr;

  // ---- observability ---------------------------------------------------------
  /// The core's own registry; `registry_` points here unless ObsConfig
  /// supplied a shared external one.
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry* registry_ = &metrics_;
  obs::TraceRing trace_ring_;
};

}  // namespace flexran::ctrl
