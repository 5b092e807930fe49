#include "scenario/config.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>

#include "apps/remote_scheduler.h"
#include "scenario/obs_export.h"
#include "traffic/udp.h"
#include "util/member.h"
#include "util/strings.h"
#include "util/yaml_lite.h"
#include "verify/invariants.h"

namespace flexran::scenario {

namespace {

using util::YamlNode;

// ---- the scenario schema ------------------------------------------------------
//
// One table per section (top level, enbs[], ues[], faults[]) lists every key
// once: its name, the member it sets and the values it accepts. The member's
// type gives the key's kind and emit format: bool is a flag (true | false),
// integers are written in decimal, doubles as %.3f, strings as text (one of
// `choices` when given), FaultKind by name, std::vector<int> as a block list
// and a vector of specs as a section of items. parse_scenario and
// scenario_to_yaml both walk these tables.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Accepted numeric range: [lo, hi], or (lo, hi] when lo_open. Non-finite
/// reals are refused before the range is asked (a NaN passes every
/// comparison).
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;

  bool rejects(double v) const { return (lo_open ? v <= lo : v < lo) || v > hi; }
  std::string describe() const {
    if (hi == kInf) return util::format(lo_open ? "> %g" : ">= %g", lo);
    return util::format(lo_open ? "in (%g, %g]" : "in %g..%g", lo, hi);
  }
};

constexpr Range at_least(double lo) { return {lo, kInf, false}; }
constexpr Range above(double lo) { return {lo, kInf, true}; }

template <typename S>
struct Key {
  const char* name;
  util::Status (*read)(S& out, const YamlNode& value, const Key& key, const std::string& where);
  void (*write)(const S& in, const std::string& pad, std::string& out);
  Range range{};
  std::span<const std::string_view> choices{};
  /// Emit the key only when this holds (nullptr = always).
  bool (*emit_if)(const S&) = nullptr;
  /// Fill the member when the key is absent (nullptr = keep the default);
  /// `index` is the item's position in its section.
  void (*fill_default)(S& out, std::size_t index) = nullptr;

  constexpr Key emitted_if(bool (*when)(const S&)) const {
    Key key = *this;
    key.emit_if = when;
    return key;
  }
  constexpr Key defaults_to(void (*fill)(S&, std::size_t)) const {
    Key key = *this;
    key.fill_default = fill;
    return key;
  }
};

using util::StructOf;
using util::TypeOf;

/// The key table of a section's item type (specialized below).
template <typename Item>
constexpr std::span<const Key<Item>> kItemKeys{};

util::Error invalid(const std::string& message) { return util::Error::invalid_argument(message); }

constexpr FaultKind kLastFaultKind = FaultKind::shard_drain;

util::Result<FaultKind> parse_fault_kind(const std::string& name) {
  std::string known;
  for (int k = 0; k <= static_cast<int>(kLastFaultKind); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == to_string(kind)) return kind;
    known += (k == 0 ? "" : " | ") + std::string(to_string(kind));
  }
  return invalid("must be " + known);
}

/// Reads an integer or real of type T that `range` accepts.
template <typename T>
util::Result<T> read_number(const YamlNode& node, const Range& range) {
  const auto value = [&] {
    if constexpr (std::is_integral_v<T>) {
      return node.as_int();
    } else {
      return node.as_double();
    }
  }();
  if (!value.ok()) {
    return invalid(std::is_integral_v<T> ? "must be an integer" : "must be a number");
  }
  if (!std::isfinite(static_cast<double>(*value))) return invalid("must be a finite number");
  if (range.rejects(static_cast<double>(*value))) return invalid("must be " + range.describe());
  return static_cast<T>(*value);
}

template <typename S>
util::Status read_section(std::span<const Key<S>> keys, const YamlNode& node,
                          const std::string& where, std::size_t index, S& out);

template <auto Member>
util::Status read_value(StructOf<Member>& out, const YamlNode& node,
                        const Key<StructOf<Member>>& key, const std::string& where) {
  using T = TypeOf<Member>;
  const auto fail = [&](const std::string& why) -> util::Status {
    return invalid(where + ": " + key.name + " " + why);
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (!node.is_scalar() || (node.as_string() != "true" && node.as_string() != "false")) {
      return fail("must be true or false, not '" + node.as_string() + "'");
    }
    out.*Member = node.as_string() == "true";
  } else if constexpr (std::is_arithmetic_v<T>) {
    const auto value = read_number<T>(node, key.range);
    if (!value.ok()) return fail(value.error().message);
    out.*Member = *value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!node.is_scalar()) return fail("must be a scalar");
    const auto& text = node.as_string();
    if (!key.choices.empty() &&
        std::find(key.choices.begin(), key.choices.end(), text) == key.choices.end()) {
      std::string allowed;
      for (const auto choice : key.choices) {
        allowed += (allowed.empty() ? "" : " | ") + std::string(choice.empty() ? "''" : choice);
      }
      return fail("must be " + allowed);
    }
    out.*Member = text;
  } else if constexpr (std::is_same_v<T, FaultKind>) {
    const auto kind = parse_fault_kind(node.as_string());
    if (!kind.ok()) return fail(kind.error().message);
    out.*Member = *kind;
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    if (!node.is_sequence()) return fail("must be a sequence");
    for (const auto& sample : node.items()) {
      const auto value = read_number<int>(sample, key.range);
      if (!value.ok()) return fail("samples " + value.error().message);
      (out.*Member).push_back(*value);
    }
  } else {  // a section: a sequence of items with their own key table
    if (!node.is_sequence()) return fail("must be a sequence");
    using Item = typename T::value_type;
    for (std::size_t i = 0; i < node.items().size(); ++i) {
      Item item;
      auto status = read_section(kItemKeys<Item>, node.items()[i],
                                 std::string(key.name) + "[" + std::to_string(i) + "]", i, item);
      if (!status.ok()) return status;
      (out.*Member).push_back(std::move(item));
    }
  }
  return {};
}

template <typename S>
void write_section(std::span<const Key<S>> keys, const S& in, const std::string& first_pad,
                   const std::string& pad, std::string& out);

template <auto Member>
void write_value(const StructOf<Member>& in, const std::string& pad, std::string& out) {
  using T = TypeOf<Member>;
  const T& value = in.*Member;
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? " true\n" : " false\n";
  } else if constexpr (std::is_same_v<T, double>) {
    out += util::format(" %.3f\n", value);
  } else if constexpr (std::is_integral_v<T>) {
    out += " " + std::to_string(value) + "\n";
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += " " + util::scalar_text(value) + "\n";
  } else if constexpr (std::is_same_v<T, FaultKind>) {
    out += " " + std::string(to_string(value)) + "\n";
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    out += "\n";
    for (const int sample : value) out += pad + "  - " + std::to_string(sample) + "\n";
  } else {
    out += "\n";
    using Item = typename T::value_type;
    for (const auto& item : value) {
      write_section(kItemKeys<Item>, item, pad + "  - ", pad + "    ", out);
    }
  }
}

template <auto Member>
constexpr Key<StructOf<Member>> key(const char* name, Range range = {},
                                    std::span<const std::string_view> choices = {}) {
  return {name, &read_value<Member>, &write_value<Member>, range, choices};
}

/// One pass over a YAML map: every entry must name a key of the table, at
/// most once. The values are then read in table order, so cross-key
/// defaults (an eNodeB's name from its id) see the keys before them.
template <typename S>
util::Status read_section(std::span<const Key<S>> keys, const YamlNode& node,
                          const std::string& where, std::size_t index, S& out) {
  if (!node.is_map()) return invalid(where + ": must be a map of keys");
  std::vector<const YamlNode*> given(keys.size(), nullptr);
  for (const auto& [name, value] : node.entries()) {
    const auto it = std::find_if(keys.begin(), keys.end(),
                                 [&](const Key<S>& key) { return name == key.name; });
    if (it == keys.end()) return invalid(where + ": unknown key '" + name + "'");
    auto& slot = given[static_cast<std::size_t>(it - keys.begin())];
    if (slot != nullptr) return invalid(where + ": key '" + name + "' given twice");
    slot = &value;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (given[i] != nullptr) {
      auto status = keys[i].read(out, *given[i], keys[i], where);
      if (!status.ok()) return status;
    } else if (keys[i].fill_default != nullptr) {
      keys[i].fill_default(out, index);
    }
  }
  return {};
}

template <typename S>
void write_section(std::span<const Key<S>> keys, const S& in, const std::string& first_pad,
                   const std::string& pad, std::string& out) {
  const std::string* line_pad = &first_pad;
  for (const auto& key : keys) {
    if (key.emit_if != nullptr && !key.emit_if(in)) continue;
    out += *line_pad + key.name + ":";
    key.write(in, pad, out);
    line_pad = &pad;
  }
}

constexpr std::string_view kTrafficKinds[] = {"full_buffer", "cbr", "none"};
constexpr std::string_view kInvariantModes[] = {"off", "log", "trap"};
constexpr std::string_view kDefects[] = {"", "stale_composite"};

using Enb = ScenarioEnbSpec;
constexpr Key<Enb> kEnbKeys[] = {
    key<&Enb::enb_id>("enb_id").defaults_to(
        [](Enb& enb, std::size_t index) { enb.enb_id = static_cast<lte::EnbId>(index + 1); }),
    key<&Enb::name>("name").defaults_to(
        [](Enb& enb, std::size_t) { enb.name = "enb-" + std::to_string(enb.enb_id); }),
    key<&Enb::shard>("shard").emitted_if([](const Enb& enb) { return enb.shard >= 0; }),
    key<&Enb::dl_scheduler>("dl_scheduler"),
    key<&Enb::ul_scheduler>("ul_scheduler"),
    key<&Enb::control_delay_ms>("control_delay_ms"),
    key<&Enb::remote_fallback_ttis>("remote_fallback_ttis", at_least(0)),
    key<&Enb::fallback_scheduler>("fallback_scheduler"),
    key<&Enb::control_rate_mbps>("control_rate_mbps", at_least(0)),
    key<&Enb::send_budget_bytes>("send_budget_bytes", at_least(0)),
};

using Ue = ScenarioUeSpec;
constexpr auto has_trace = [](const Ue& ue) { return !ue.cqi_trace.empty(); };
constexpr Key<Ue> kUeKeys[] = {
    key<&Ue::enb>("enb"),
    key<&Ue::cqi>("cqi", {1, 15}),
    key<&Ue::ul_cqi>("ul_cqi"),
    key<&Ue::traffic>("traffic", {}, kTrafficKinds),
    key<&Ue::rate_mbps>("rate_mbps"),
    key<&Ue::ul_traffic>("ul_traffic", {}, kTrafficKinds),
    key<&Ue::ul_rate_mbps>("ul_rate_mbps"),
    key<&Ue::cqi_trace>("cqi_trace", {0, 15}).emitted_if(has_trace),
    key<&Ue::cqi_trace_period_ms>("cqi_trace_period_ms", above(0)).emitted_if(has_trace),
};

using Fault = FaultEvent;
constexpr Key<Fault> kFaultKeys[] = {
    key<&Fault::at_s>("at_s", at_least(0)),
    key<&Fault::kind>("kind"),
    key<&Fault::enb>("enb"),
    key<&Fault::duration_s>("duration_s"),
    key<&Fault::delay_ms>("delay_ms"),
    key<&Fault::count>("count", at_least(1)),
    key<&Fault::period_s>("period_s", above(0)),
    key<&Fault::shard>("shard"),
};

template <>
constexpr std::span<const Key<Enb>> kItemKeys<Enb> = kEnbKeys;
template <>
constexpr std::span<const Key<Ue>> kItemKeys<Ue> = kUeKeys;
template <>
constexpr std::span<const Key<Fault>> kItemKeys<Fault> = kFaultKeys;

using Spec = ScenarioSpec;
constexpr Key<Spec> kRootKeys[] = {
    key<&Spec::duration_s>("duration_s", above(0)),
    key<&Spec::stats_period_ttis>("stats_period_ttis", at_least(1)),
    key<&Spec::seed>("seed", at_least(1)),
    key<&Spec::shards>("shards", at_least(1)),
    key<&Spec::shard_stall_cycles>("shard_stall_cycles", at_least(0)),
    key<&Spec::remote_scheduler>("remote_scheduler"),
    key<&Spec::schedule_ahead_sf>("schedule_ahead_sf"),
    key<&Spec::agent_timeout_ms>("agent_timeout_ms"),
    key<&Spec::agent_disconnect_timeout_ms>("agent_disconnect_timeout_ms"),
    key<&Spec::request_timeout_ms>("request_timeout_ms"),
    key<&Spec::ingest_max_messages>("ingest_max_messages", at_least(0)),
    key<&Spec::ingest_max_bytes>("ingest_max_bytes", at_least(0)),
    key<&Spec::observability>("observability"),
    key<&Spec::metrics_period_s>("metrics_period_s", above(0)),
    key<&Spec::master_recovery>("master_recovery"),
    key<&Spec::resync_tokens_per_s>("resync_tokens_per_s", at_least(0)),
    key<&Spec::resync_burst>("resync_burst", at_least(1)),
    key<&Spec::resync_retry_after_ms>("resync_retry_after_ms", at_least(0)),
    key<&Spec::readiness_quorum>("readiness_quorum", {0, 1, true}),
    key<&Spec::readiness_timeout_ms>("readiness_timeout_ms", at_least(0)),
    key<&Spec::warm_checkpoint>("warm_checkpoint"),
    key<&Spec::checkpoint_period_s>("checkpoint_period_s", above(0)),
    key<&Spec::invariants>("invariants", {}, kInvariantModes),
    key<&Spec::defect>("defect", {}, kDefects).emitted_if([](const Spec& spec) {
      return !spec.defect.empty();
    }),
    key<&Spec::enbs>("enbs"),
    key<&Spec::ues>("ues").emitted_if([](const Spec& spec) { return !spec.ues.empty(); }),
    key<&Spec::faults>("faults").emitted_if(
        [](const Spec& spec) { return !spec.faults.empty(); }),
};

}  // namespace

util::Result<ScenarioSpec> parse_scenario(const std::string& yaml) {
  auto doc = util::parse_yaml(yaml);
  if (!doc.ok()) return doc.error();
  ScenarioSpec spec;
  auto status = read_section<Spec>(kRootKeys, doc.value(), "top level", 0, spec);
  if (!status.ok()) return status.error();

  // Rules that relate keys across sections.
  if (spec.enbs.empty()) return invalid("scenario needs at least one eNodeB");
  for (std::size_t i = 0; i < spec.enbs.size(); ++i) {
    const auto pin = spec.enbs[i].shard;
    if (pin >= 0 && static_cast<std::size_t>(pin) >= spec.shards) {
      return invalid(util::format("eNodeB %zu: shard pin %lld out of range for %zu shards", i,
                                  pin, spec.shards));
    }
  }
  for (std::size_t i = 0; i < spec.ues.size(); ++i) {
    const auto enb = spec.ues[i].enb;
    if (std::none_of(spec.enbs.begin(), spec.enbs.end(),
                     [&](const auto& e) { return e.enb_id == enb; })) {
      return invalid(util::format("UE %zu references unknown eNodeB %u", i, enb));
    }
  }
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const auto& fault = spec.faults[i];
    if (fault.enb >= 0 && static_cast<std::size_t>(fault.enb) >= spec.enbs.size()) {
      return invalid(util::format("fault %zu references unknown eNodeB index %d", i, fault.enb));
    }
    if (fault.shard >= 0 && static_cast<std::size_t>(fault.shard) >= spec.shards) {
      return invalid(util::format("fault %zu references unknown shard %d", i, fault.shard));
    }
    if (fault.kind == FaultKind::shard_kill || fault.kind == FaultKind::shard_drain) {
      // -1 ("every shard") would orphan the whole fleet with nobody left
      // to adopt it; failover needs a survivor, so the target is explicit.
      if (fault.shard < 0) {
        return invalid(util::format("fault %zu: %s needs an explicit shard", i,
                                    to_string(fault.kind)));
      }
      if (spec.shards < 2) {
        return invalid(util::format("fault %zu: %s needs shards >= 2", i, to_string(fault.kind)));
      }
    }
  }
  return spec;
}

ScenarioRunSummary run_scenario(const ScenarioSpec& spec) {
  ctrl::MasterConfig master_config = per_tti_master_config(spec.stats_period_ttis);
  master_config.agent_timeout_us = sim::from_ms(spec.agent_timeout_ms);
  master_config.agent_disconnect_timeout_us = sim::from_ms(spec.agent_disconnect_timeout_ms);
  master_config.request_timeout_us = sim::from_ms(spec.request_timeout_ms);
  master_config.overload.ingest.max_messages =
      static_cast<std::uint64_t>(spec.ingest_max_messages);
  master_config.overload.ingest.max_bytes = static_cast<std::uint64_t>(spec.ingest_max_bytes);
  master_config.obs.enabled = spec.observability;
  if (spec.master_recovery) {
    master_config.recovery.enabled = true;
    master_config.recovery.resync_tokens_per_s = spec.resync_tokens_per_s;
    master_config.recovery.resync_burst = spec.resync_burst;
    master_config.recovery.resync_retry_after_ms = spec.resync_retry_after_ms;
    master_config.recovery.readiness_quorum = spec.readiness_quorum;
    master_config.recovery.readiness_timeout_us = sim::from_ms(spec.readiness_timeout_ms);
    if (spec.warm_checkpoint) {
      // An in-memory sink survives the in-place restart (the scenario's
      // "process" is the Testbed) and keeps scenario runs hermetic.
      master_config.recovery.checkpoint_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
      master_config.recovery.checkpoint_period_us = sim::from_seconds(spec.checkpoint_period_s);
    }
  }
  Testbed testbed(std::move(master_config), spec.shards);
  if (spec.shard_stall_cycles > 0) {
    testbed.coordinator().set_shard_stall_cycles(spec.shard_stall_cycles);
  }
  if (spec.remote_scheduler) {
    // The centralized scheduler works one shard's agents on that shard's
    // task manager: one instance per shard, not a composite app.
    for (std::size_t i = 0; i < testbed.coordinator().shard_count(); ++i) {
      apps::RemoteSchedulerConfig config;
      config.schedule_ahead_sf = spec.schedule_ahead_sf;
      testbed.coordinator().shard(i).add_app(
          std::make_unique<apps::RemoteSchedulerApp>(config));
    }
  }

  std::map<lte::EnbId, std::size_t> enb_index;
  for (const auto& enb_spec : spec.enbs) {
    EnbSpec out;
    out.enb.enb_id = enb_spec.enb_id;
    out.enb.cells[0].cell_id = enb_spec.enb_id;
    out.agent.name = enb_spec.name;
    out.agent.dl_scheduler = spec.remote_scheduler ? "remote" : enb_spec.dl_scheduler;
    out.agent.ul_scheduler = enb_spec.ul_scheduler;
    out.agent.remote_fallback_ttis = enb_spec.remote_fallback_ttis;
    out.agent.fallback_scheduler = enb_spec.fallback_scheduler;
    if (enb_spec.shard >= 0) out.shard = static_cast<std::size_t>(enb_spec.shard);
    out.seed = spec.seed + testbed.enbs().size();
    out.uplink.delay = sim::from_ms(enb_spec.control_delay_ms);
    out.downlink.delay = sim::from_ms(enb_spec.control_delay_ms);
    if (enb_spec.control_rate_mbps > 0) {
      out.uplink.rate_bps = static_cast<std::int64_t>(enb_spec.control_rate_mbps * 1e6);
    }
    enb_index[enb_spec.enb_id] = testbed.enbs().size();
    auto& enb = testbed.add_enb(out);
    if (enb_spec.send_budget_bytes > 0) {
      net::QueueBudget budget;
      budget.max_bytes = static_cast<std::uint64_t>(enb_spec.send_budget_bytes);
      enb.agent_side->set_send_budget(budget);
    }
  }

  struct LiveUe {
    lte::EnbId enb;
    std::size_t index;
    lte::Rnti rnti;
  };
  std::vector<LiveUe> live;
  std::vector<std::unique_ptr<traffic::UdpCbrSource>> sources;
  int stagger = 2;
  for (const auto& ue_spec : spec.ues) {
    const auto index = enb_index.at(ue_spec.enb);
    stack::UeProfile profile;
    if (ue_spec.cqi_trace.empty()) {
      profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(ue_spec.cqi);
    } else {
      profile.dl_channel = std::make_unique<phy::TraceCqiChannel>(
          ue_spec.cqi_trace, sim::from_ms(ue_spec.cqi_trace_period_ms), /*loop=*/true);
    }
    profile.ul_cqi = ue_spec.ul_cqi;
    profile.attach_after_ttis = stagger++;
    const auto rnti = testbed.add_ue(index, std::move(profile));
    live.push_back({ue_spec.enb, index, rnti});

    if (ue_spec.ul_traffic == "full_buffer") {
      auto* dp = testbed.enb(index).data_plane.get();
      testbed.on_tti([dp, rnti](std::int64_t) {
        const auto* ue = dp->ue(rnti);
        if (ue != nullptr && ue->connected() && ue->ul_buffer_bytes < 30'000) {
          dp->enqueue_ul(rnti, 30'000);
        }
      });
    } else if (ue_spec.ul_traffic == "cbr") {
      auto* dp = testbed.enb(index).data_plane.get();
      sources.push_back(std::make_unique<traffic::UdpCbrSource>(
          testbed.sim(), [dp, rnti](std::uint32_t bytes) { dp->enqueue_ul(rnti, bytes); },
          ue_spec.ul_rate_mbps));
      sources.back()->start();
    }

    if (ue_spec.traffic == "full_buffer") {
      auto* dp = testbed.enb(index).data_plane.get();
      testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
        const auto* ue = dp->ue(rnti);
        if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
          (void)testbed.epc().downlink(rnti, 60'000);
        }
      });
    } else if (ue_spec.traffic == "cbr") {
      sources.push_back(std::make_unique<traffic::UdpCbrSource>(
          testbed.sim(),
          [&testbed, rnti](std::uint32_t bytes) { (void)testbed.epc().downlink(rnti, bytes); },
          ue_spec.rate_mbps));
      sources.back()->start();
    }
  }

  FaultInjector injector(testbed);
  injector.schedule_all(spec.faults);

  // Runtime verification (docs/chaos_fuzzing.md): the monitor re-checks the
  // control plane's safety invariants after every coordinator cycle. All
  // eNodeBs exist by now, so the I6 quarantine probes can bind directly to
  // each agent's VsfGuard counter.
  std::unique_ptr<verify::InvariantMonitor> monitor;
  if (spec.invariants != "off") {
    auto mode = verify::parse_mode(spec.invariants);
    monitor = std::make_unique<verify::InvariantMonitor>(
        testbed.coordinator(), mode.ok() ? *mode : verify::Mode::log);
    for (std::size_t i = 0; i < testbed.enbs().size(); ++i) {
      const auto* guard = &testbed.enbs()[i]->agent->vsf_guard();
      monitor->add_quarantine_probe(
          "enb" + std::to_string(i),
          [guard] { return guard->quarantined_invocations(); });
    }
    monitor->install();
  }
  if (spec.defect == "stale_composite") {
    // Self-check defect: composite-cache invalidation removed. The monitor
    // must catch the resulting stale union (I3).
    testbed.coordinator().set_fault_stale_composite(true);
  }

  ScenarioRunSummary summary;
  summary.observability = spec.observability;
  if (spec.observability) {
    // All eNodeBs exist now; bridge their agent/link counters into the
    // master's registry and collect a JSON dump every metrics period. The
    // probes (and the on_tti export) only run while the testbed is alive.
    register_testbed_probes(testbed);
    const auto period_ttis =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(spec.metrics_period_s * 1000.0));
    testbed.on_tti([&testbed, &summary, period_ttis](std::int64_t tti) {
      if (tti % period_ttis == 0) {
        summary.metrics_json.push_back(
            testbed.coordinator().metrics().json(testbed.sim().now()));
      }
    });
  }

  testbed.run_seconds(spec.duration_s);

  if (spec.observability) {
    summary.metrics_json.push_back(testbed.coordinator().metrics().json(testbed.sim().now()));
    summary.metrics_prometheus = testbed.coordinator().metrics().prometheus_text();
    summary.metrics_block = format_metrics_block(testbed);
  }
  summary.duration_s = spec.duration_s;
  for (const auto& ue : live) {
    UeRunResult result;
    result.enb = ue.enb;
    result.rnti = ue.rnti;
    const auto* context = testbed.enb(ue.index).data_plane->ue(ue.rnti);
    result.connected = context != nullptr && context->connected();
    result.cqi = context != nullptr ? context->reported_cqi : 0;
    result.dl_mbps = Metrics::mbps(
        testbed.metrics().total_bytes(ue.enb, ue.rnti, lte::Direction::downlink),
        spec.duration_s);
    result.ul_mbps = Metrics::mbps(
        testbed.metrics().total_bytes(ue.enb, ue.rnti, lte::Direction::uplink),
        spec.duration_s);
    summary.ues.push_back(result);
  }
  summary.master_cycles = testbed.coordinator().cycles_run();
  summary.rib_updates = testbed.coordinator().updates_applied();
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  for (auto& enb : testbed.enbs()) {
    up_bytes += enb->agent->tx_accounting().total_bytes();
    down_bytes += testbed.coordinator().tx_accounting(enb->agent_id).total_bytes();
  }
  summary.uplink_signaling_mbps = Metrics::mbps(up_bytes, spec.duration_s);
  summary.downlink_signaling_mbps = Metrics::mbps(down_bytes, spec.duration_s);
  summary.faults_injected = injector.faults_injected();
  summary.requests_retried = testbed.coordinator().requests_retried();
  summary.requests_failed = testbed.coordinator().requests_failed();
  summary.fenced_updates = testbed.coordinator().fenced_updates();
  for (auto& enb : testbed.enbs()) {
    ++summary.agents_total;
    const auto* node = testbed.coordinator().find_agent(enb->agent_id);
    if (node != nullptr) {
      summary.agent_reconnects += node->reconnects;
      if (node->state == ctrl::SessionState::up) ++summary.agents_up;
    }
  }
  summary.policy_rollbacks = testbed.coordinator().policy_rollbacks();
  for (auto& enb : testbed.enbs()) {
    const auto& guard = enb->agent->vsf_guard();
    summary.vsf_failures += guard.vsf_failures();
    summary.vsf_quarantines += guard.quarantines();
    summary.vsf_fallback_decisions += guard.fallback_decisions();
    summary.unscheduled_slots += guard.unscheduled_slots();
    const std::string impl = enb->agent->mac().active_implementation(
        agent::MacControlModule::kDlSchedulerSlot);
    if (!impl.empty() &&
        !enb->agent->vsf_cache().is_quarantined(agent::MacControlModule::kName,
                                                agent::MacControlModule::kDlSchedulerSlot,
                                                impl)) {
      ++summary.agents_on_valid_policy;
    }
  }
  summary.overload_state = testbed.coordinator().overload_state();
  summary.overload_transitions = testbed.coordinator().overload_transitions();
  summary.ingest_shed = testbed.coordinator().ingest_shed();
  summary.ingest_coalesced = testbed.coordinator().ingest_coalesced();
  summary.ingest_peak_messages = testbed.coordinator().pending_peak_messages();
  summary.ingest_peak_bytes = testbed.coordinator().pending_peak_bytes();
  summary.throttle_renegotiations = testbed.coordinator().throttle_renegotiations();
  summary.updater_saturations = testbed.coordinator().updater_saturations();
  summary.master_restarts = testbed.coordinator().master_restarts();
  summary.resyncs_paced = testbed.coordinator().resyncs_paced();
  summary.commands_held = testbed.coordinator().commands_held();
  summary.checkpoints_saved = testbed.coordinator().checkpoints_saved();
  summary.policies_repushed = testbed.coordinator().policies_repushed();
  summary.recovering_at_end = testbed.coordinator().any_recovering();
  summary.time_to_ready_ms = sim::to_seconds(testbed.coordinator().last_recovery_duration()) * 1e3;
  for (auto& enb : testbed.enbs()) {
    summary.fenced_incarnation_messages += enb->agent->fenced_incarnation_messages();
  }
  for (auto& enb : testbed.enbs()) {
    ScenarioRunSummary::LinkStats link;
    link.uplink_tx = enb->agent_side->messages_sent();
    link.uplink_rx = enb->master_side->messages_received();
    link.uplink_dropped = enb->agent_side->frames_dropped();
    link.uplink_shed = enb->agent_side->frames_shed();
    link.downlink_tx = enb->master_side->messages_sent();
    link.downlink_rx = enb->agent_side->messages_received();
    link.downlink_dropped = enb->master_side->frames_dropped();
    link.downlink_shed = enb->master_side->frames_shed();
    summary.links.push_back(link);
  }
  summary.shards = testbed.coordinator().shard_count();
  if (summary.shards > 1) {
    for (std::size_t i = 0; i < summary.shards; ++i) {
      const auto& core = testbed.coordinator().shard(i);
      ScenarioRunSummary::ShardSummary shard;
      shard.agents = core.rib().agents().size();
      shard.rib_updates = core.updates_applied();
      shard.ingest_shed = core.ingest_shed();
      shard.master_restarts = core.master_restarts();
      shard.overload_state = core.overload_state();
      shard.recovering = core.recovering();
      shard.health = testbed.coordinator().shard_health(i);
      summary.shard_summaries.push_back(shard);
    }
  }
  const auto& coordinator = testbed.coordinator();
  summary.shards_failed = coordinator.shards_failed();
  summary.agents_adopted = coordinator.agents_adopted();
  summary.warm_adoptions = coordinator.warm_adoptions();
  summary.cold_adoptions = coordinator.cold_adoptions();
  summary.agents_drained = coordinator.agents_drained();
  summary.agents_orphaned = coordinator.agents_orphaned();
  summary.failover_pending = coordinator.failover_pending();
  summary.orphan_window_ms = sim::to_seconds(coordinator.last_orphan_window()) * 1e3;
  summary.failover_duration_ms = sim::to_seconds(coordinator.last_failover_duration()) * 1e3;
  if (monitor != nullptr) {
    summary.invariant_checks = monitor->checks_run();
    summary.invariant_violations = monitor->violations_total();
    summary.invariant_details = monitor->violation_summaries(8);
  }
  return summary;
}

std::string format_summary(const ScenarioRunSummary& summary) {
  std::string out = util::format("%-6s %-8s %-10s %6s %12s %12s\n", "enb", "rnti", "state",
                                 "CQI", "DL (Mb/s)", "UL (Mb/s)");
  for (const auto& ue : summary.ues) {
    out += util::format("%-6u %-8u %-10s %6d %12.2f %12.2f\n", ue.enb, ue.rnti,
                        ue.connected ? "connected" : "DETACHED", ue.cqi, ue.dl_mbps, ue.ul_mbps);
  }
  out += util::format(
      "\nmaster: %lld cycles, %llu RIB updates; signaling up %.3f Mb/s / down %.3f Mb/s "
      "over %.1f s\n",
      static_cast<long long>(summary.master_cycles),
      static_cast<unsigned long long>(summary.rib_updates), summary.uplink_signaling_mbps,
      summary.downlink_signaling_mbps, summary.duration_s);
  if (summary.faults_injected > 0) {
    out += util::format(
        "chaos: %llu faults, %u agent reconnects, %llu retries, %llu failed requests, "
        "%llu fenced updates; %d/%d agents re-synced\n",
        static_cast<unsigned long long>(summary.faults_injected), summary.agent_reconnects,
        static_cast<unsigned long long>(summary.requests_retried),
        static_cast<unsigned long long>(summary.requests_failed),
        static_cast<unsigned long long>(summary.fenced_updates), summary.agents_up,
        summary.agents_total);
  }
  if (summary.vsf_failures > 0 || summary.vsf_quarantines > 0 || summary.policy_rollbacks > 0) {
    out += util::format(
        "containment: %llu VSF failures, %llu quarantines, %llu fallback decisions, "
        "%llu rollbacks, %llu unscheduled TTIs; %d/%d agents on valid policy\n",
        static_cast<unsigned long long>(summary.vsf_failures),
        static_cast<unsigned long long>(summary.vsf_quarantines),
        static_cast<unsigned long long>(summary.vsf_fallback_decisions),
        static_cast<unsigned long long>(summary.policy_rollbacks),
        static_cast<unsigned long long>(summary.unscheduled_slots),
        summary.agents_on_valid_policy, summary.agents_total);
  }
  if (summary.overload_transitions > 0 || summary.ingest_shed > 0 ||
      summary.ingest_coalesced > 0) {
    out += util::format(
        "overload: state=%s, %llu transitions; ingest shed %llu / coalesced %llu, "
        "peak queue %llu msgs / %llu bytes; %llu throttle renegotiations, "
        "%llu saturated updater cycles\n",
        ctrl::to_string(summary.overload_state),
        static_cast<unsigned long long>(summary.overload_transitions),
        static_cast<unsigned long long>(summary.ingest_shed),
        static_cast<unsigned long long>(summary.ingest_coalesced),
        static_cast<unsigned long long>(summary.ingest_peak_messages),
        static_cast<unsigned long long>(summary.ingest_peak_bytes),
        static_cast<unsigned long long>(summary.throttle_renegotiations),
        static_cast<unsigned long long>(summary.updater_saturations));
  }
  if (summary.master_restarts > 0) {
    out += util::format(
        "recovery: %llu master restarts, ready in %.1f ms (%s); %llu paced re-syncs, "
        "%llu commands held, %llu incarnation-fenced messages, %llu checkpoints, "
        "%llu policies re-pushed\n",
        static_cast<unsigned long long>(summary.master_restarts), summary.time_to_ready_ms,
        summary.recovering_at_end ? "STILL RECOVERING" : "recovered",
        static_cast<unsigned long long>(summary.resyncs_paced),
        static_cast<unsigned long long>(summary.commands_held),
        static_cast<unsigned long long>(summary.fenced_incarnation_messages),
        static_cast<unsigned long long>(summary.checkpoints_saved),
        static_cast<unsigned long long>(summary.policies_repushed));
  }
  if (summary.shards_failed > 0 || summary.agents_drained > 0) {
    out += util::format(
        "failover: %llu shards failed, %llu adopted (%llu warm / %llu cold), "
        "%llu drained, %zu orphaned, %zu still pending; orphan window %.1f ms, "
        "adopted up in %.1f ms\n",
        static_cast<unsigned long long>(summary.shards_failed),
        static_cast<unsigned long long>(summary.agents_adopted),
        static_cast<unsigned long long>(summary.warm_adoptions),
        static_cast<unsigned long long>(summary.cold_adoptions),
        static_cast<unsigned long long>(summary.agents_drained), summary.agents_orphaned,
        summary.failover_pending, summary.orphan_window_ms, summary.failover_duration_ms);
  }
  if (summary.invariant_checks > 0) {
    out += util::format("invariants: %llu checks, %llu violations%s\n",
                        static_cast<unsigned long long>(summary.invariant_checks),
                        static_cast<unsigned long long>(summary.invariant_violations),
                        summary.invariant_violations == 0 ? " (clean)" : "");
    for (const auto& detail : summary.invariant_details) {
      out += "  ! " + detail + "\n";
    }
  }
  for (std::size_t i = 0; i < summary.shard_summaries.size(); ++i) {
    const auto& shard = summary.shard_summaries[i];
    const bool alive = shard.health == ctrl::Coordinator::ShardHealth::alive;
    out += util::format(
        "shard %zu: %zu agents, %llu RIB updates, %llu shed, %llu restarts, state=%s%s%s\n", i,
        shard.agents, static_cast<unsigned long long>(shard.rib_updates),
        static_cast<unsigned long long>(shard.ingest_shed),
        static_cast<unsigned long long>(shard.master_restarts),
        ctrl::to_string(shard.overload_state), shard.recovering ? " (RECOVERING)" : "",
        alive ? "" : util::format(" [%s]", ctrl::to_string(shard.health)).c_str());
  }
  for (std::size_t i = 0; i < summary.links.size(); ++i) {
    const auto& link = summary.links[i];
    out += util::format(
        "link %zu: up tx %llu rx %llu dropped %llu shed %llu | "
        "down tx %llu rx %llu dropped %llu shed %llu\n",
        i, static_cast<unsigned long long>(link.uplink_tx),
        static_cast<unsigned long long>(link.uplink_rx),
        static_cast<unsigned long long>(link.uplink_dropped),
        static_cast<unsigned long long>(link.uplink_shed),
        static_cast<unsigned long long>(link.downlink_tx),
        static_cast<unsigned long long>(link.downlink_rx),
        static_cast<unsigned long long>(link.downlink_dropped),
        static_cast<unsigned long long>(link.downlink_shed));
  }
  if (!summary.metrics_block.empty()) out += summary.metrics_block;
  return out;
}

std::string scenario_to_yaml(const ScenarioSpec& spec) {
  // Every key is emitted (the parser accepts defaults back), except those
  // whose empty/unset form has no YAML spelling. %.3f quantizes times to
  // 1 ms / rates to 1 kb/s -- the fuzzer only generates values on that
  // grid, so parse(emit(spec)) is exact.
  std::string out;
  write_section<Spec>(kRootKeys, spec, "", "", out);
  return out;
}

}  // namespace flexran::scenario
