#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "util/logging.h"

namespace loopbench {

using namespace flexran;

// ------------------------------------------------------------ process facts

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------- result JSON

namespace {
std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": ";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ------------------------------------------------------------------ spans

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::tti: return "tti";
    case SpanName::generator: return "generator";
    case SpanName::harness: return "harness";
    case SpanName::run_until: return "Simulator::run_until";
    case SpanName::subframe_begin: return "EnodebDataPlane::subframe_begin";
    case SpanName::subframe_end: return "EnodebDataPlane::subframe_end";
    case SpanName::run_cycle: return "Coordinator::run_cycle";
    case SpanName::app_on_cycle: return "App::on_cycle";
    case SpanName::rib_snapshot: return "Coordinator::rib_snapshot";
    case SpanName::send_command: return "NorthboundApi::send_dl_mac_config";
    case SpanName::count: break;
  }
  return "?";
}

void Tracer::enable(std::size_t capacity) {
  capacity_ = capacity;
  spans_.reserve(capacity);
  open_.reserve(64);
  on_ = true;
}

std::int32_t Tracer::open(SpanName name) {
  Open entry;
  entry.name = name;
  if (spans_.size() < capacity_) {
    Span span;
    span.tti = tti_;
    span.name = name;
    // The parent is the innermost stored open span.
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (it->index >= 0) {
        span.parent = it->index;
        break;
      }
    }
    entry.index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  open_.push_back(entry);
  open_.back().start_ns = now_ns();
  return static_cast<std::int32_t>(open_.size() - 1);
}

void Tracer::close(std::int32_t handle) {
  const std::int64_t end = now_ns();
  // Spans nest strictly, so the handle is always the innermost open span.
  const Open entry = open_[static_cast<std::size_t>(handle)];
  open_.resize(static_cast<std::size_t>(handle));
  auto& totals = totals_[static_cast<std::size_t>(entry.name)];
  totals.total_us += static_cast<double>(end - entry.start_ns) / 1e3;
  ++totals.count;
  if (entry.index >= 0) {
    Span& span = spans_[static_cast<std::size_t>(entry.index)];
    span.start_ns = entry.start_ns;
    span.end_ns = end;
  }
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# index\tparent\ttti\tname\tstart_ns\tend_ns\n");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%d\t%lld\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<long long>(s.tti), to_string(s.name),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

// ------------------------------------------------------------------ probe

void Probe::observe_queues(const ctrl::Coordinator& coordinator) {
  harness([&] {
    std::size_t depth = 0;
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      depth += coordinator.shard(s).pending_updates();
    }
    queue_depth_max = std::max(queue_depth_max, depth);
  });
}

void Probe::observe_ages(const ctrl::Coordinator& coordinator, std::int64_t tti,
                         bool time_compose) {
  harness([&] {
    std::shared_ptr<const ctrl::RibSnapshot> snapshot;
    if (time_compose) {
      traced(tracer, SpanName::rib_snapshot, [&] { snapshot = coordinator.rib_snapshot(); });
    } else {
      snapshot = coordinator.rib_snapshot();
    }
    if (!window) return;
    for (const auto& [id, agent] : snapshot->agents()) {
      (void)id;
      const std::int64_t age = std::max<std::int64_t>(0, tti - agent->last_subframe);
      ++age_hist[static_cast<std::size_t>(std::min<std::int64_t>(age, kMaxAge))];
    }
  });
}

// ---------------------------------------------------------- app wrapper

class TimedApp::Proxy final : public ctrl::NorthboundApi {
 public:
  Proxy(Tracer& tracer, CommandLog& log, bool times_compose)
      : tracer_(tracer), log_(log), times_compose_(times_compose) {}

  void bind(ctrl::NorthboundApi& api) {
    api_ = &api;
    snapshot_read_ = false;
  }

  std::shared_ptr<const ctrl::RibSnapshot> rib_snapshot() const override {
    if (!times_compose_ || snapshot_read_ || !tracer_.on()) return api_->rib_snapshot();
    snapshot_read_ = true;
    std::shared_ptr<const ctrl::RibSnapshot> snapshot;
    traced(tracer_, SpanName::rib_snapshot, [&] { snapshot = api_->rib_snapshot(); });
    return snapshot;
  }
  sim::TimeUs now() const override { return api_->now(); }
  std::int64_t agent_subframe(ctrl::AgentId agent) const override {
    return api_->agent_subframe(agent);
  }

  util::Status send_dl_mac_config(ctrl::AgentId agent, const proto::DlMacConfig& config) override {
    util::Status status;
    traced(tracer_, SpanName::send_command, [&] {
      if (static_cast<std::int64_t>(log_.sent) != log_.swallow_at) {
        status = api_->send_dl_mac_config(agent, config);
      }
    });
    if (!status.ok()) return status;
    ++log_.sent;
    if (agent < log_.per_agent.size()) log_.per_agent[agent].add(config.target_subframe);
    if (log_.capture && log_.samples.size() < kSamples) log_.samples.push_back(config);
    return status;
  }
  util::Status send_ul_mac_config(ctrl::AgentId agent, const proto::UlMacConfig& config) override {
    return api_->send_ul_mac_config(agent, config);
  }
  util::Status send_handover(ctrl::AgentId agent, const proto::HandoverCommand& command) override {
    return api_->send_handover(agent, command);
  }
  util::Status send_abs_config(ctrl::AgentId agent, const proto::AbsConfig& config) override {
    return api_->send_abs_config(agent, config);
  }
  util::Status send_carrier_restriction(ctrl::AgentId agent,
                                        const proto::CarrierRestriction& config) override {
    return api_->send_carrier_restriction(agent, config);
  }
  util::Status send_drx_config(ctrl::AgentId agent, const proto::DrxConfig& config) override {
    return api_->send_drx_config(agent, config);
  }
  util::Status send_scell_command(ctrl::AgentId agent,
                                  const proto::ScellCommand& command) override {
    return api_->send_scell_command(agent, command);
  }
  util::Status request_stats(ctrl::AgentId agent, const proto::StatsRequest& request) override {
    return api_->request_stats(agent, request);
  }
  util::Status subscribe_events(ctrl::AgentId agent, std::vector<proto::EventType> events,
                                bool enable) override {
    return api_->subscribe_events(agent, std::move(events), enable);
  }
  util::Status push_vsf(ctrl::AgentId agent, const std::string& module, const std::string& vsf,
                        const std::string& implementation) override {
    return api_->push_vsf(agent, module, vsf, implementation);
  }
  util::Status send_policy(ctrl::AgentId agent, const std::string& yaml) override {
    return api_->send_policy(agent, yaml);
  }

 private:
  static constexpr std::size_t kSamples = 64;
  Tracer& tracer_;
  CommandLog& log_;
  const bool times_compose_;
  ctrl::NorthboundApi* api_ = nullptr;
  mutable bool snapshot_read_ = false;
};

TimedApp::TimedApp(std::unique_ptr<ctrl::App> inner, Tracer& tracer, CommandLog& log,
                   bool global)
    : inner_(std::move(inner)),
      tracer_(tracer),
      proxy_(std::make_unique<Proxy>(tracer, log, global)) {}

TimedApp::~TimedApp() = default;

void TimedApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  proxy_->bind(api);
  traced(tracer_, SpanName::app_on_cycle, [&] { inner_->on_cycle(cycle, *proxy_); });
}

// ----------------------------------------------------------------- metrics

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Per-layer metrics: the end-to-end metric the layer should move and
  /// the workload where the layer does most of its work.
  const char* moves = "";
  const char* where = "";
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ttis_per_s", "1/s"},
    {"cycle_us_p50", "us"},
    {"cpu_us_per_tti", "us"},
    {"rib_age_tti_p50", "TTI"},
    {"rib_age_tti_p99", "TTI"},
    {"delivered_ratio", "ratio"},
    {"allocs_per_report", "count"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"proto.decode_ns_per_byte", "ns/B", "cycle_us_p50", "per_tti_ingest"},
    {"proto.decode_allocs_per_msg", "count", "allocs_per_report", "per_tti_ingest"},
    {"proto.read_varint_ns", "ns", "cycle_us_p50", "per_tti_ingest"},
    {"proto.encode_ns_per_byte", "ns/B", "ttis_per_s", "closed_loop_sched"},
    {"proto.encode_allocs_per_msg", "count", "allocs_per_report", "closed_loop_sched"},
    {"net.frame_ns_per_msg", "ns", "ttis_per_s", "closed_loop_sched"},
    {"net.frame_allocs_per_msg", "count", "allocs_per_report", "closed_loop_sched"},
    {"net.deliver_us_per_tti", "us", "ttis_per_s", "all"},
    {"net.deliver_allocs_per_report", "count", "allocs_per_report", "per_tti_ingest"},
    {"net.bytes_up_per_tti", "B", "none (guard, Fig. 7)", "all"},
    {"net.bytes_down_per_tti", "B", "none (guard, Fig. 7)", "all"},
    {"controller.ingest_apply_us_per_report", "us", "cycle_us_p50", "per_tti_ingest"},
    {"controller.ingest_apply_allocs_per_report", "count", "allocs_per_report",
     "per_tti_ingest"},
    {"controller.apply_cycle_allocs_per_report", "count", "allocs_per_report",
     "per_tti_ingest"},
    {"controller.publish_us", "us", "cycle_us_p50", "per_tti_ingest, sharded_fleet"},
    {"controller.publish_allocs_per_cycle", "count", "allocs_per_report",
     "per_tti_ingest, sharded_fleet"},
    {"controller.updater_us", "us", "cycle_us_p50", "per_tti_ingest, sharded_fleet"},
    {"controller.app_slot_us", "us", "cycle_us_p50", "closed_loop_sched"},
    {"controller.compose_us", "us", "cycle_us_p50", "sharded_fleet"},
    {"controller.command_route_us", "us", "cycle_us_p50", "sharded_fleet, closed_loop_sched"},
    {"controller.commands_flushed_per_tti", "count", "cycle_us_p50",
     "sharded_fleet, closed_loop_sched"},
    {"controller.ingest_queue_depth_max", "count", "rib_age_tti_p99", "all"},
    {"controller.rib_bytes_per_ue", "B", "peak_rss_mb", "per_tti_ingest, sharded_fleet"},
    {"stack.subframe_us_per_enb", "us", "ttis_per_s", "closed_loop_sched"},
    {"agent.report_build_us", "us", "ttis_per_s", "closed_loop_sched"},
    {"agent.report_build_allocs", "count", "allocs_per_report", "closed_loop_sched"},
    {"agent.command_apply_us", "us", "ttis_per_s", "closed_loop_sched"},
    {"agent.command_apply_allocs", "count", "allocs_per_report", "closed_loop_sched"},
    {"agent.decision_miss_ratio", "ratio", "delivered_ratio", "closed_loop_sched"},
    {"apps.on_cycle_us", "us", "cycle_us_p50", "closed_loop_sched, sharded_fleet"},
    // The cycle tail swings with host hiccups far more than any bound
    // allows, so it is reported here, unbounded, rather than end to end.
    {"cycle_us_p99", "us", "none (tail of cycle_us_p50)", "all"},
    {"gen_us_per_tti", "us", "none (harness check)", "all"},
    {"trace_overhead_pct", "%", "none (harness check)", "all"},
};

/// A median and the highest percentile (at most the 99th) that keeps at
/// least 10 samples beyond it, by nearest rank.
struct Tail {
  double p50 = 0.0;
  double high = 0.0;
  double high_percentile = 0.0;
  std::uint64_t samples = 0;
};

std::size_t high_rank(std::uint64_t n) {
  const auto rank99 = static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::uint64_t limit = n > 10 ? n - 10 : 1;
  return static_cast<std::size_t>(std::max<std::uint64_t>(1, std::min(rank99, limit)));
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto median_rank = static_cast<std::size_t>(std::ceil(0.5 * static_cast<double>(n)));
  tail.p50 = values[median_rank - 1];
  const std::size_t rank = high_rank(n);
  tail.high = values[rank - 1];
  tail.high_percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.samples = n;
  return tail;
}

Tail tail_of(const std::vector<std::uint64_t>& histogram) {
  Tail tail;
  std::uint64_t n = 0;
  for (const auto count : histogram) n += count;
  if (n == 0) return tail;
  const auto value_at = [&](std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::size_t value = 0; value < histogram.size(); ++value) {
      seen += histogram[value];
      if (seen >= rank) return static_cast<double>(value);
    }
    return static_cast<double>(histogram.size() - 1);
  };
  tail.p50 = value_at(static_cast<std::uint64_t>(std::ceil(0.5 * static_cast<double>(n))));
  const std::size_t rank = high_rank(n);
  tail.high = value_at(rank);
  tail.high_percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.samples = n;
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Consecutive measured TTIs, timed together.
struct Block {
  std::int64_t ttis = 0;
  double system_wall_s = 0.0;
  double system_cpu_s = 0.0;
  std::size_t first_cycle = 0;  // index into PhaseStats::cycle_us
  double reference_us = kReferenceUs;  // timed right after the block
};

/// What one measured phase produced.
struct PhaseStats {
  std::int64_t ttis = 0;
  double wall_s = 0.0;
  double system_wall_s = 0.0;
  double system_cpu_s = 0.0;
  double generator_s = 0.0;
  std::vector<double> cycle_us;
  std::vector<Block> blocks;  // complete blocks only
  // Fixed window (first `window_ttis` TTIs of the phase).
  std::uint64_t window_allocs = 0;
  std::uint64_t window_reports = 0;
  std::vector<std::uint64_t> age_hist;

  double ttis_per_s() const { return system_wall_s > 0 ? static_cast<double>(ttis) / system_wall_s : 0; }
};

/// A phase at reference host speed. Other tenants of a shared host slow
/// the whole loop by up to 1.8x, for seconds to minutes at a time, and CPU
/// time slows with it (the cores run slower; they are not taken away). The
/// reference kernel timed after each block slows too, if less, so each
/// block's times are scaled by speed_factor() of the median reference time
/// of the five blocks around it (one pass can be preempted). A change to
/// the program moves the scaled figures as much as the raw ones: the kernel
/// shares no code or heap with it. The raw figures go to the details line.
struct Scaled {
  std::vector<double> cycle_us;
  std::int64_t ttis = 0;
  double system_wall_s = 0.0;
  double system_cpu_s = 0.0;
  double reference_us = 0.0;  // median over the blocks

  double ttis_per_s() const { return static_cast<double>(ttis) / system_wall_s; }
  double cpu_us_per_tti() const { return system_cpu_s * 1e6 / static_cast<double>(ttis); }
};

Scaled at_reference_speed(const PhaseStats& phase) {
  std::vector<Block> blocks = phase.blocks;
  if (blocks.empty()) {
    // Shorter than one block: the whole phase is the only block.
    blocks.push_back(Block{phase.ttis, phase.system_wall_s, phase.system_cpu_s, 0, reference_us()});
  }
  Scaled scaled;
  std::vector<double> references;
  for (const Block& block : blocks) references.push_back(block.reference_us);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& block = blocks[i];
    const std::size_t first = i < 2 ? 0 : i - 2;
    const std::size_t last = std::min(blocks.size(), i + 3);
    const double factor = speed_factor(median(std::vector<double>(
        references.begin() + static_cast<std::ptrdiff_t>(first),
        references.begin() + static_cast<std::ptrdiff_t>(last))));
    scaled.ttis += block.ttis;
    scaled.system_wall_s += block.system_wall_s * factor;
    scaled.system_cpu_s += block.system_cpu_s * factor;
    const auto cycles = phase.cycle_us.begin() + static_cast<std::ptrdiff_t>(block.first_cycle);
    for (auto it = cycles; it != cycles + block.ttis; ++it) scaled.cycle_us.push_back(*it * factor);
  }
  scaled.reference_us = median(references);
  return scaled;
}

/// The tail of a run's cycles: the median, over consecutive windows of
/// 1000 cycles, of each window's p99 (the 10th-highest cycle). A single
/// host hiccup then moves one window, not the run's figure.
constexpr std::size_t kTailWindow = 1000;

struct WindowedTail {
  double high = 0.0;
  std::size_t windows = 0;
};

WindowedTail windowed_tail(const std::vector<double>& cycle_us) {
  std::vector<double> highs;
  for (std::size_t first = 0; first + kTailWindow <= cycle_us.size(); first += kTailWindow) {
    const auto begin = cycle_us.begin() + static_cast<std::ptrdiff_t>(first);
    highs.push_back(tail_of(std::vector<double>(begin, begin + kTailWindow)).high);
  }
  // Fewer cycles than one window: the whole run is the only window.
  if (highs.empty()) highs.push_back(tail_of(cycle_us).high);
  return WindowedTail{median(highs), highs.size()};
}

/// Shard-side counters the traced run takes deltas of.
struct ControlCounters {
  double updater_us = 0.0;
  double apps_us = 0.0;
  double publish_us = 0.0;
  std::uint64_t flushed = 0;
  std::uint64_t routed = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;

  static ControlCounters read(Workload& w, const CommandLog& log) {
    ControlCounters c;
    auto& coordinator = w.coordinator();
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      const auto& core = coordinator.shard(s);
      c.updater_us += core.task_manager().updater_time_us().total();
      c.apps_us += core.task_manager().apps_time_us().total();
      c.publish_us += core.snapshot_publish_us().total();
      c.flushed += core.commands_flushed();
    }
    // Commands of a global app bypass the shards' batch flush: the
    // Coordinator routes them straight to the owning shard.
    c.routed = w.global_app() ? log.sent : 0;
    c.bytes_up = w.bytes_up();
    c.bytes_down = w.bytes_down();
    return c;
  }
};

class Runner {
 public:
  Runner(Tracer& tracer, CommandLog& log, WorkloadSpec spec)
      : tracer_(tracer), log_(log), spec_(std::move(spec)), probe_(tracer) {
    probe_.cycle_us.reserve(1 << 18);
  }

  /// Builds the workload `setups` times, each from nothing until ready;
  /// returns the set-up wall times (generator and checks excluded) at
  /// reference host speed; raw_setup_s() has them as measured. The last
  /// instance is kept.
  std::vector<double> set_up(int setups) {
    std::vector<double> times;
    for (int i = 0; i < setups; ++i) {
      workload_.reset();
      log_ = CommandLog{};
      const std::int64_t excluded0 = probe_.excluded_wall_ns;
      const std::int64_t start = now_ns();
      workload_ = spec_.make();
      tti_ = 0;
      bool ready = false;
      while (!ready) {
        if (tti_ >= spec_.max_setup_ttis) {
          throw std::runtime_error("set-up did not converge within " +
                                   std::to_string(spec_.max_setup_ttis) + " TTIs");
        }
        step();
        probe_.harness([&] { ready = workload_->ready(); });
      }
      const std::int64_t spent = now_ns() - start - (probe_.excluded_wall_ns - excluded0);
      raw_setup_s_.push_back(static_cast<double>(spent) / 1e9);
      // Scaled to reference host speed like the measured phase; the
      // median of three passes, as one set-up is only tens of ms.
      const double reference = median({reference_us(), reference_us(), reference_us()});
      times.push_back(raw_setup_s_.back() * speed_factor(reference));
    }
    setup_ttis_ = tti_;
    for (int i = 0; i < spec_.warmup_ttis; ++i) step();
    return times;
  }

  /// Runs TTIs until `seconds` of wall time passed and at least
  /// `min_ttis` ran; the first `window_ttis` form the exact window.
  PhaseStats measure(double seconds, std::int64_t min_ttis, std::int64_t window_ttis) {
    PhaseStats stats;
    probe_.cycle_us.clear();
    std::fill(probe_.age_hist.begin(), probe_.age_hist.end(), 0);
    probe_.recording = true;
    probe_.window = window_ttis > 0;
    const std::int64_t wall0 = now_ns();
    const double cpu0 = process_cpu_s();
    const std::int64_t excluded_wall0 = probe_.excluded_wall_ns;
    const std::int64_t excluded_cpu0 = probe_.excluded_cpu_ns;
    const std::int64_t generator0 = probe_.generator_wall_ns;
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t excluded_allocs0 = probe_.excluded_allocs;
    const std::uint64_t updates0 = workload_->coordinator().updates_applied();
    const auto deadline = wall0 + static_cast<std::int64_t>(seconds * 1e9);

    // Block bookkeeping: system wall and CPU time since the block began.
    std::int64_t block_wall = wall0;
    double block_cpu = cpu0;
    std::int64_t block_excluded_wall = probe_.excluded_wall_ns;
    std::int64_t block_excluded_cpu = probe_.excluded_cpu_ns;
    for (;;) {
      step();
      ++stats.ttis;
      if (stats.ttis == window_ttis) {
        probe_.window = false;
        stats.window_allocs =
            (allocations() - allocs0) - (probe_.excluded_allocs - excluded_allocs0);
        stats.window_reports = workload_->coordinator().updates_applied() - updates0;
        stats.age_hist = probe_.age_hist;
      }
      if (stats.ttis % spec_.block_ttis == 0) {
        const std::int64_t wall = now_ns();
        const double cpu = process_cpu_s();
        Block block;
        block.ttis = spec_.block_ttis;
        block.first_cycle = static_cast<std::size_t>(stats.ttis - spec_.block_ttis);
        block.system_wall_s =
            static_cast<double>(wall - block_wall - (probe_.excluded_wall_ns - block_excluded_wall)) /
            1e9;
        block.system_cpu_s =
            cpu - block_cpu - static_cast<double>(probe_.excluded_cpu_ns - block_excluded_cpu) / 1e9;
        probe_.harness([&] { block.reference_us = reference_us(); });
        stats.blocks.push_back(block);
        // The next block starts after the reference kernel.
        block_wall = now_ns();
        block_cpu = process_cpu_s();
        block_excluded_wall = probe_.excluded_wall_ns;
        block_excluded_cpu = probe_.excluded_cpu_ns;
      }
      if (stats.ttis >= std::max(min_ttis, window_ttis) && now_ns() >= deadline) break;
    }
    const std::int64_t wall = now_ns() - wall0;
    const double cpu = process_cpu_s() - cpu0;
    probe_.recording = false;
    stats.wall_s = static_cast<double>(wall) / 1e9;
    stats.system_wall_s =
        static_cast<double>(wall - (probe_.excluded_wall_ns - excluded_wall0)) / 1e9;
    stats.system_cpu_s =
        cpu - static_cast<double>(probe_.excluded_cpu_ns - excluded_cpu0) / 1e9;
    stats.generator_s = static_cast<double>(probe_.generator_wall_ns - generator0) / 1e9;
    stats.cycle_us = probe_.cycle_us;
    return stats;
  }

  void drain() { workload_->drain(++tti_); }

  Workload& workload() { return *workload_; }
  Probe& probe() { return probe_; }
  std::int64_t setup_ttis() const { return setup_ttis_; }
  const std::vector<double>& raw_setup_s() const { return raw_setup_s_; }

 private:
  void step() {
    ++tti_;
    tracer_.set_tti(tti_);
    traced(tracer_, SpanName::tti, [&] { workload_->step(tti_, probe_); });
  }

  Tracer& tracer_;
  CommandLog& log_;
  WorkloadSpec spec_;
  Probe probe_;
  std::unique_ptr<Workload> workload_;
  std::int64_t tti_ = 0;
  std::int64_t setup_ttis_ = 0;
  std::vector<double> raw_setup_s_;
};

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

JsonObject identity(const Options& options, std::uint64_t input_digest) {
  JsonObject id;
  id.str("git_sha", options.git_sha)
      .str("source_digest", options.source_digest)
      .integer("host_cores", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .str("compiler", "g++ " __VERSION__)
      .str("build_type", LOOPBENCH_BUILD_TYPE)
      .integer("seed", static_cast<std::int64_t>(options.seed))
      .str("input_digest", hex(input_digest));
  return id;
}

JsonObject tail_json(const Tail& tail) {
  JsonObject json;
  json.num("p50", tail.p50)
      .num("high", tail.high)
      .num("high_percentile", tail.high_percentile)
      .integer("samples", static_cast<std::int64_t>(tail.samples));
  return json;
}

using MetricValues = std::vector<std::pair<const MetricDef*, double>>;

/// Prints the details line, names every failed check on standard error and
/// prints the result line last; returns the exit code.
int finish(const Options& options, JsonObject& details, const Outcome& outcome,
           const MetricValues& values) {
  std::string checks = "[";
  for (std::size_t i = 0; i < outcome.failed_checks.size(); ++i) {
    checks += (i == 0 ? "" : ", ") + json_string(outcome.failed_checks[i]);
  }
  details.integer("attempted", static_cast<std::int64_t>(outcome.attempted))
      .integer("failed", static_cast<std::int64_t>(outcome.failed))
      .raw("failed_checks", checks + "]");
  std::printf("%s\n", JsonObject().obj("loopbench_details", details).str().c_str());
  for (const auto& check : outcome.failed_checks) {
    std::fprintf(stderr, "loopbench: %s: check failed: %s\n", options.workload.c_str(),
                 check.c_str());
  }
  JsonObject metrics;
  for (const auto& [def, value] : values) {
    JsonObject metric;
    metric.num("value", value).str("unit", def->unit);
    metrics.obj(def->name, metric);
  }
  JsonObject result;
  result.boolean("correct", outcome.failed_checks.empty())
      .integer("attempted", static_cast<std::int64_t>(std::max<std::uint64_t>(1, outcome.attempted)))
      .integer("failed", static_cast<std::int64_t>(outcome.failed))
      .obj("metrics", metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return outcome.failed_checks.empty() ? 0 : 1;
}

WorkloadSpec make_spec(Context& context) {
  const std::string& name = context.options.workload;
  if (name == "per_tti_ingest") return per_tti_ingest(context);
  if (name == "sharded_fleet") return sharded_fleet(context);
  if (name == "closed_loop_sched") return closed_loop_sched(context);
  throw std::runtime_error("unknown workload '" + name +
                           "' (per_tti_ingest | closed_loop_sched | sharded_fleet)");
}

}  // namespace

// ------------------------------------------------------------------ run

int run(const Options& options) {
  util::Logger::instance().set_level(util::LogLevel::error);
  Tracer tracer;
  CommandLog log;
  Context context{options, tracer, log};
  WorkloadSpec spec = make_spec(context);
  const std::uint64_t digest = spec.input_digest(64);
  if (options.hash_inputs) {
    std::printf("%s\n", hex(digest).c_str());
    return 0;
  }

  JsonObject details;
  details.obj("identity", identity(options, digest));
  details.str("workload", options.workload).obj("params", spec.params);

  Runner runner(tracer, log, spec);
  const int setups = options.trace ? 1 : spec.setups;
  const std::vector<double> setup_times = runner.set_up(setups);
  Workload& w = runner.workload();
  auto& coordinator = w.coordinator();

  MetricValues values;
  const auto find = [](const MetricDef* table, std::size_t n, const char* name) {
    for (std::size_t i = 0; i < n; ++i) {
      if (std::string_view(table[i].name) == name) return &table[i];
    }
    throw std::logic_error(std::string("no metric ") + name);
  };
  JsonObject run_info;
  run_info.num("seconds", options.seconds)
      .boolean("trace", options.trace)
      .integer("setup_ttis", runner.setup_ttis())
      .integer("warmup_ttis", spec.warmup_ttis);

  if (!options.trace) {
    const PhaseStats phase = runner.measure(options.seconds, 1, spec.window_ttis);
    runner.drain();
    Outcome outcome;
    w.check(outcome);

    const Scaled scaled = at_reference_speed(phase);
    const Tail cycle = tail_of(scaled.cycle_us);
    const WindowedTail cycle_tail = windowed_tail(scaled.cycle_us);
    const Tail raw_cycle = tail_of(phase.cycle_us);
    const Tail age = tail_of(phase.age_hist);
    const double delivered =
        outcome.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
    const auto e2e = [&](const char* name, double value) {
      values.emplace_back(find(kEndToEnd, std::size(kEndToEnd), name), value);
    };
    e2e("setup_s", median(setup_times));
    e2e("ttis_per_s", scaled.ttis_per_s());
    e2e("cycle_us_p50", cycle.p50);
    e2e("cpu_us_per_tti", scaled.cpu_us_per_tti());
    e2e("rib_age_tti_p50", age.p50);
    e2e("rib_age_tti_p99", age.high);
    e2e("delivered_ratio", delivered);
    e2e("allocs_per_report", phase.window_reports == 0
                                 ? 0.0
                                 : static_cast<double>(phase.window_allocs) /
                                       static_cast<double>(phase.window_reports));
    e2e("peak_rss_mb", peak_rss_mb());

    std::string setups_json = "[";
    for (std::size_t i = 0; i < setup_times.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ", runner.raw_setup_s()[i]);
      setups_json += buf;
    }
    setups_json += "]";
    run_info.integer("measured_ttis", phase.ttis)
        .num("measured_wall_s", phase.wall_s)
        .num("system_wall_s", phase.system_wall_s)
        .integer("block_ttis", spec.block_ttis)
        .integer("blocks", static_cast<std::int64_t>(phase.blocks.size()))
        .num("reference_us", scaled.reference_us)
        .num("raw_ttis_per_s", phase.ttis_per_s())
        .num("raw_cpu_us_per_tti",
             phase.system_cpu_s * 1e6 / static_cast<double>(phase.ttis))
        .obj("raw_cycle_us", tail_json(raw_cycle))
        .num("generator_s", phase.generator_s)
        .integer("window_ttis", spec.window_ttis)
        .integer("window_reports", static_cast<std::int64_t>(phase.window_reports))
        .integer("window_allocs", static_cast<std::int64_t>(phase.window_allocs))
        .raw("raw_setup_s_runs", setups_json)
        .obj("cycle_us", tail_json(cycle))
        .num("cycle_us_p99", cycle_tail.high)
        .integer("cycle_us_p99_windows", static_cast<std::int64_t>(cycle_tail.windows))
        .obj("rib_age_tti", tail_json(age))
        .num("failed_ratio", 1.0 - delivered);
    std::string blocks_json = "[";
    for (std::size_t i = 0; i < phase.blocks.size(); ++i) {
      const Block& b = phase.blocks[i];
      const auto first = phase.cycle_us.begin() + static_cast<std::ptrdiff_t>(b.first_cycle);
      const Tail t = tail_of(std::vector<double>(first, first + b.ttis));
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s[%.1f, %.1f, %.1f, %.1f]", i == 0 ? "" : ", ",
                    b.system_wall_s * 1e6 / static_cast<double>(b.ttis), t.p50,
                    b.system_cpu_s * 1e6 / static_cast<double>(b.ttis), b.reference_us);
      blocks_json += buf;
    }
    // Per block, as measured: system us per TTI, median cycle us, CPU us
    // per TTI, reference kernel us.
    run_info.raw("blocks", blocks_json + "]");
    details.obj("run", run_info);
    return finish(options, details, outcome, values);
  }

  // ---- traced run: untraced phase, traced phase, then the replays.
  const double phase_s = options.seconds * 0.4;
  const PhaseStats plain = runner.measure(phase_s, 20, 0);
  const ControlCounters before = ControlCounters::read(w, log);
  runner.probe().queue_depth_max = 0;
  log.capture = true;
  tracer.enable(1 << 19);
  const PhaseStats traced_phase = runner.measure(phase_s, 20, 0);
  tracer.disable();
  log.capture = false;
  const ControlCounters after = ControlCounters::read(w, log);
  runner.drain();
  Outcome outcome;
  w.check(outcome);

  LayerMetrics layer;
  for (const auto& def : kPerLayer) layer[def.name] = 0.0;
  const double ttis = static_cast<double>(traced_phase.ttis);
  const auto mean_of = [&](SpanName name) { return tracer.totals(name).mean_us(); };
  layer["net.deliver_us_per_tti"] = tracer.totals(SpanName::run_until).total_us / ttis;
  layer["net.bytes_up_per_tti"] = static_cast<double>(after.bytes_up - before.bytes_up) / ttis;
  layer["net.bytes_down_per_tti"] =
      static_cast<double>(after.bytes_down - before.bytes_down) / ttis;
  const auto& begin_totals = tracer.totals(SpanName::subframe_begin);
  if (begin_totals.count > 0) {
    layer["stack.subframe_us_per_enb"] =
        (begin_totals.total_us + tracer.totals(SpanName::subframe_end).total_us) /
        static_cast<double>(begin_totals.count);
  }
  layer["apps.on_cycle_us"] = mean_of(SpanName::app_on_cycle);
  layer["controller.compose_us"] = mean_of(SpanName::rib_snapshot);
  layer["controller.command_route_us"] = mean_of(SpanName::send_command);
  layer["controller.commands_flushed_per_tti"] =
      static_cast<double>((after.flushed - before.flushed) + (after.routed - before.routed)) /
      ttis;
  layer["controller.updater_us"] = (after.updater_us - before.updater_us) / ttis;
  layer["controller.app_slot_us"] = (after.apps_us - before.apps_us) / ttis;
  layer["controller.publish_us"] = (after.publish_us - before.publish_us) / ttis;
  layer["controller.ingest_queue_depth_max"] =
      static_cast<double>(runner.probe().queue_depth_max);
  {
    std::size_t rib_bytes = 0;
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      rib_bytes += coordinator.shard(s).rib_bytes();
    }
    const std::size_t ues = coordinator.rib_snapshot()->ue_count();
    layer["controller.rib_bytes_per_ue"] =
        ues == 0 ? 0.0 : static_cast<double>(rib_bytes) / static_cast<double>(ues);
  }
  layer["gen_us_per_tti"] = plain.generator_s * 1e6 / static_cast<double>(plain.ttis);
  const Scaled plain_scaled = at_reference_speed(plain);
  layer["cycle_us_p99"] = windowed_tail(plain_scaled.cycle_us).high;
  const double plain_tps = plain_scaled.ttis_per_s();
  const double traced_tps = at_reference_speed(traced_phase).ttis_per_s();
  layer["trace_overhead_pct"] = 100.0 * (plain_tps - traced_tps) / plain_tps;

  JsonObject replays;
  w.agent_metrics(layer);
  replay_layers(w, layer, replays);

  const std::string span_path = options.out_dir + "/trace-" + options.workload + ".tsv";
  const bool spans_written = tracer.write_tsv(span_path);

  for (const auto& def : kPerLayer) values.emplace_back(&def, layer[def.name]);
  JsonObject map;
  for (const auto& def : kPerLayer) {
    JsonObject entry;
    entry.str("moves", def.moves).str("workload", def.where);
    map.obj(def.name, entry);
  }
  run_info.integer("untraced_ttis", plain.ttis)
      .num("untraced_ttis_per_s", plain_tps)
      .integer("traced_ttis", traced_phase.ttis)
      .num("traced_ttis_per_s", traced_tps);
  JsonObject spans;
  spans.str("file", spans_written ? span_path : "")
      .integer("stored", static_cast<std::int64_t>(tracer.stored()))
      .integer("dropped", static_cast<std::int64_t>(tracer.dropped()));
  details.obj("run", run_info).obj("spans", spans).obj("replays", replays).obj("layer_map", map);
  return finish(options, details, outcome, values);
}

}  // namespace loopbench
