// Shared harness of the control-loop benchmark (see ../README.md): process
// clocks and counters, in-memory spans, the probe through which every
// workload reports what it spends, the timing wrapper around apps, and the
// interface each workload is run through.
//
// The benchmark drives the control loop from outside, through public calls
// only; nothing here reaches into src/ internals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "controller/app.h"
#include "controller/coordinator.h"
#include "proto/messages.h"

namespace loopbench {

namespace ctrl = flexran::ctrl;
namespace proto = flexran::proto;

// ------------------------------------------------------------ process facts

/// Heap allocations made so far by the whole process (alloc_counter.cpp).
std::uint64_t allocations();
std::int64_t now_ns();
/// CPU time of the calling thread.
std::int64_t thread_cpu_ns();
/// User + system CPU time of the whole process (getrusage).
double process_cpu_s();
/// Peak resident set size of the process (getrusage ru_maxrss).
double peak_rss_mb();

/// Wall µs of one pass of a fixed reference kernel (host_speed.cpp): varint
/// parsing, table probes and a buffer shift over 192 KiB, the kind of work
/// the control loop does, but none of its code and no heap.
double reference_us();
/// reference_us() on the quiet host the bounds were tuned on.
constexpr double kReferenceUs = 2400.0;
/// How much harder than the kernel host load slows the control loop: on
/// that host log(loop time) rose 1.2 to 2.3 times as fast as log(kernel
/// time) from one run to the next.
constexpr double kSpeedExponent = 2.0;
/// Factor that takes a time measured next to a kernel pass of
/// `reference_us` to reference host speed.
double speed_factor(double reference_us);

/// FNV-1a, used for input digests.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size);
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
/// splitmix64: the seeded generator behind every workload input.
std::uint64_t mix64(std::uint64_t x);

// ------------------------------------------------------------ result JSON

/// Minimal JSON object writer (keys in insertion order).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::int64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, const std::string& json);
  JsonObject& obj(std::string_view key, const JsonObject& value) { return raw(key, value.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

// ------------------------------------------------------------------ spans

/// Span names: one per public call the benchmark wraps.
enum class SpanName : std::uint8_t {
  tti,
  generator,
  harness,
  run_until,       // sim::Simulator::run_until
  subframe_begin,  // stack::EnodebDataPlane::subframe_begin (runs the agent)
  subframe_end,    // stack::EnodebDataPlane::subframe_end
  run_cycle,       // ctrl::Coordinator::run_cycle
  app_on_cycle,    // ctrl::App::on_cycle, through TimedApp
  rib_snapshot,    // first ctrl::Coordinator::rib_snapshot() of a cycle
  send_command,    // ctrl::NorthboundApi::send_dl_mac_config, through TimedApp
  count,
};
const char* to_string(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tti = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::tti;
};

/// In-memory span recorder for the traced run. Spans are kept in a
/// preallocated buffer (later ones are counted as dropped once it is full)
/// and written out once, when the run ends; per-name totals are kept for
/// every span, stored or not. Off by default: then no clock is read.
class Tracer {
 public:
  struct Totals {
    double total_us = 0.0;
    std::uint64_t count = 0;
    double mean_us() const { return count == 0 ? 0.0 : total_us / static_cast<double>(count); }
  };

  void enable(std::size_t capacity);
  void disable() { on_ = false; }
  bool on() const { return on_; }
  void set_tti(std::int64_t tti) { tti_ = tti; }

  /// Opens a span under the innermost open one; returns its handle.
  std::int32_t open(SpanName name);
  void close(std::int32_t handle);

  const Totals& totals(SpanName name) const { return totals_[static_cast<std::size_t>(name)]; }
  std::size_t stored() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  /// Writes every stored span as tab-separated text.
  bool write_tsv(const std::string& path) const;

 private:
  struct Open {
    std::int32_t index = -1;  // -1: not stored (buffer full)
    SpanName name = SpanName::tti;
    std::int64_t start_ns = 0;
  };

  bool on_ = false;
  std::int64_t tti_ = 0;
  std::size_t capacity_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::uint64_t dropped_ = 0;
  Totals totals_[static_cast<std::size_t>(SpanName::count)];
};

template <typename F>
void traced(Tracer& tracer, SpanName name, F&& fn) {
  if (!tracer.on()) {
    fn();
    return;
  }
  const std::int32_t handle = tracer.open(name);
  fn();
  tracer.close(handle);
}

// ------------------------------------------------------------------ probe

/// Highest RIB age (in TTIs) kept in its own histogram bucket.
constexpr std::size_t kMaxAge = 255;

/// What one TTI of a workload spends, as the runner sees it. Workloads run
/// their system calls through system()/cycle() and their own input
/// generation and checking through generator()/harness(); wall time, CPU
/// time and allocations of the latter two are subtracted from every system
/// metric.
struct Probe {
  explicit Probe(Tracer& t) : tracer(t) {}

  Tracer& tracer;
  /// Cycle times are kept (measured phases).
  bool recording = false;
  /// Inside the fixed window of exactly repeatable metrics.
  bool window = false;

  std::vector<double> cycle_us;
  std::vector<std::uint64_t> age_hist = std::vector<std::uint64_t>(kMaxAge + 1, 0);
  std::size_t queue_depth_max = 0;

  std::int64_t excluded_wall_ns = 0;
  std::int64_t excluded_cpu_ns = 0;
  std::uint64_t excluded_allocs = 0;
  std::int64_t generator_wall_ns = 0;

  template <typename F>
  void system(SpanName name, F&& fn) {
    traced(tracer, name, fn);
  }

  /// ctrl::Coordinator::run_cycle: the only clock the untraced run reads
  /// inside the system.
  template <typename F>
  void cycle(F&& fn) {
    const bool traced_now = tracer.on();
    const std::int32_t handle = traced_now ? tracer.open(SpanName::run_cycle) : -1;
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t end = now_ns();
    if (traced_now) tracer.close(handle);
    if (recording) cycle_us.push_back(static_cast<double>(end - start) / 1e3);
  }

  template <typename F>
  void generator(F&& fn) {
    excluded(SpanName::generator, fn, true);
  }
  template <typename F>
  void harness(F&& fn) {
    excluded(SpanName::harness, fn, false);
  }

  /// Before a cycle: depth of every shard's ingest queue.
  void observe_queues(const ctrl::Coordinator& coordinator);
  /// After a cycle: age (current TTI minus AgentNode::last_subframe) of
  /// every agent in the snapshot apps read. With `time_compose` the call is
  /// the cycle's first Coordinator::rib_snapshot() and is traced as such.
  void observe_ages(const ctrl::Coordinator& coordinator, std::int64_t tti, bool time_compose);

 private:
  template <typename F>
  void excluded(SpanName name, F& fn, bool is_generator) {
    const bool traced_now = tracer.on();
    const std::int32_t handle = traced_now ? tracer.open(name) : -1;
    const std::uint64_t allocs = allocations();
    const std::int64_t cpu = thread_cpu_ns();
    const std::int64_t wall = now_ns();
    fn();
    const std::int64_t wall_spent = now_ns() - wall;
    excluded_cpu_ns += thread_cpu_ns() - cpu;
    excluded_allocs += allocations() - allocs;
    excluded_wall_ns += wall_spent;
    if (is_generator) generator_wall_ns += wall_spent;
    if (traced_now) tracer.close(handle);
  }
};

// ---------------------------------------------------------- app wrapper

/// Commands the wrapped app issued, as seen at the northbound boundary.
struct CommandLog {
  struct Tally {
    std::uint64_t count = 0;
    std::uint64_t target_sum = 0;
    std::uint64_t target_xor = 0;
    void add(std::int64_t target) {
      ++count;
      target_sum += static_cast<std::uint64_t>(target);
      target_xor ^= mix64(static_cast<std::uint64_t>(target));
    }
    bool operator==(const Tally&) const = default;
  };

  /// DL MAC configs the app saw accepted.
  std::uint64_t sent = 0;
  /// Per target agent (index = AgentId); sized by the workload.
  std::vector<Tally> per_agent;
  /// Copies of the first commands, kept while `capture` is set.
  bool capture = false;
  std::vector<proto::DlMacConfig> samples;
  /// Injected defect: the command with this sequence number is reported
  /// accepted to the app but never handed to the control plane.
  std::int64_t swallow_at = -1;
};

/// Timing wrapper around an app: runs it through a forwarding northbound
/// proxy that spans on_cycle and every DL MAC config, and logs the
/// commands. For a `global` app (registered on the Coordinator, whose
/// rib_snapshot() composes the shards) the cycle's first rib_snapshot() is
/// spanned too. Without tracing it reads no clock.
class TimedApp final : public ctrl::App {
 public:
  TimedApp(std::unique_ptr<ctrl::App> inner, Tracer& tracer, CommandLog& log, bool global);
  ~TimedApp() override;

  std::string_view name() const override { return inner_->name(); }
  int priority() const override { return inner_->priority(); }
  void on_start(ctrl::NorthboundApi& api) override { inner_->on_start(api); }
  void on_event(const ctrl::Event& event, ctrl::NorthboundApi& api) override {
    inner_->on_event(event, api);
  }
  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;

  ctrl::App& inner() { return *inner_; }

 private:
  class Proxy;
  std::unique_ptr<ctrl::App> inner_;
  Tracer& tracer_;
  std::unique_ptr<Proxy> proxy_;
};

// --------------------------------------------------------------- workloads

/// Result of the output oracle and of the failure accounting.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  void expect(bool ok, const std::string& check) {
    if (!ok) failed_checks.push_back(check);
  }
};

/// The workload's own traffic, captured for the per-layer replays.
struct WireSamples {
  /// Agent -> master StatsReply envelopes from many agents.
  std::vector<std::vector<std::uint8_t>> reports;
  /// Consecutive StatsReply envelopes of one agent (ingest replay).
  std::vector<std::vector<std::uint8_t>> one_agent;
  /// Master -> agent DL MAC configs.
  std::vector<proto::DlMacConfig> commands;
};

using LayerMetrics = std::map<std::string, double>;

/// One system under test, built by a set-up and stepped one TTI at a time.
/// Every step is lock-stepped to simulated time: the next TTI starts only
/// when the master cycle of this one has returned.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void step(std::int64_t tti, Probe& probe) = 0;
  /// Set-up is complete: every agent is connected and the snapshot holds
  /// every UE.
  virtual bool ready() const = 0;
  /// Delivers everything still in flight after the last step.
  virtual void drain(std::int64_t tti) = 0;
  /// Output oracle and failure accounting (after drain()).
  virtual void check(Outcome& outcome) const = 0;

  virtual ctrl::Coordinator& coordinator() = 0;
  /// The wrapped app runs in the Coordinator's global slot (composite
  /// view, commands routed by the Coordinator) rather than on a shard.
  virtual bool global_app() const = 0;
  /// Bytes sent agent -> master and master -> agent so far.
  virtual std::uint64_t bytes_up() const = 0;
  virtual std::uint64_t bytes_down() const = 0;
  /// Agents of `shard` whose reports the last cycle applied.
  virtual std::set<ctrl::AgentId> last_dirty(std::size_t shard) const = 0;
  virtual WireSamples samples() const = 0;
  /// Master configuration of the workload's shards (for replays).
  virtual ctrl::MasterConfig master_config() const = 0;
  /// Agent- and stack-layer metrics (workloads with real agents only).
  virtual void agent_metrics(LayerMetrics& metrics) { (void)metrics; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Injected defect for the oracle self-tests: "", "drop_report" or
  /// "unrouted_command".
  std::string inject;
  /// Prints the digest of the generated inputs and exits.
  bool hash_inputs = false;
  std::string out_dir = ".bench_build";
  std::string git_sha = "none";
  std::string source_digest = "none";
};

/// Shared state a workload's instances hook into.
struct Context {
  const Options& options;
  Tracer& tracer;
  CommandLog& log;
};

/// A workload: its generated inputs (made once per run and shared by
/// every set-up repetition) and how to build and drive it.
struct WorkloadSpec {
  std::function<std::unique_ptr<Workload>()> make;
  /// Digest of the inputs a run generates over its first `ttis` TTIs.
  std::function<std::uint64_t(int ttis)> input_digest;
  JsonObject params;
  int setups = 5;
  int max_setup_ttis = 200;
  int warmup_ttis = 50;
  /// Fixed window of TTIs over which the simulated-time metrics are
  /// taken, so that they repeat exactly for a seed.
  int window_ttis = 300;
  /// Measured TTIs per timing block (see at_reference_speed() in harness.cpp).
  int block_ttis = 64;
};

WorkloadSpec per_tti_ingest(Context& context);
WorkloadSpec sharded_fleet(Context& context);
WorkloadSpec closed_loop_sched(Context& context);

// ----------------------------------------------------------------- replays

/// Replays the workload's own messages through the proto, net and
/// controller layers on their own (replays.cpp).
void replay_layers(Workload& workload, LayerMetrics& metrics, JsonObject& details);

/// Runs the benchmark; returns the process exit code.
int run(const Options& options);

}  // namespace loopbench
