// Scenario YAML as an input surface: the emitted form of every checked-in
// document is pinned, so a rewrite of the parser or the emitter that
// changes what any document means shows up as a digest change.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "scenario/config.h"
#include "seeded.h"
#include "util/yaml_lite.h"
#include "verify/fuzzer.h"

namespace flexran {
namespace {

using seeded::Digest;
using seeded::Prng;

const char* const kScenarioFiles[] = {
    "centralized_scheduling.yaml", "chaos_master.yaml",   "chaos_metrics.yaml",
    "chaos_overload.yaml",         "chaos_recovery.yaml", "chaos_vsf.yaml",
    "sharded_drain.yaml",          "sharded_failover.yaml", "sharded_scale.yaml",
    "two_cell_mixed.yaml",
};

// The document `flexran-sim --demo` runs (tools/flexran_sim.cpp).
const char* const kDemoScenario = R"(# flexran_sim --demo
duration_s: 4
stats_period_ttis: 1
remote_scheduler: false
enbs:
  - enb_id: 1
    name: macro-east
    dl_scheduler: local_rr
  - enb_id: 2
    name: macro-west
    dl_scheduler: local_pf
    control_delay_ms: 5
ues:
  - enb: 1
    cqi: 15
    traffic: full_buffer
  - enb: 1
    cqi: 8
    traffic: full_buffer
  - enb: 2
    cqi: 12
    traffic: cbr
    rate_mbps: 4
  - enb: 2
    cqi: 10
    traffic: cbr
    rate_mbps: 2
)";

// Every one of the 54 keys, each set away from its default.
const char* const kEveryKey = R"(duration_s: 2.5
stats_period_ttis: 2
seed: 9
shards: 3
shard_stall_cycles: 4
remote_scheduler: true
schedule_ahead_sf: 5
agent_timeout_ms: 40
agent_disconnect_timeout_ms: 120.5
request_timeout_ms: 15
ingest_max_messages: 64
ingest_max_bytes: 65536
observability: true
metrics_period_s: 0.25
master_recovery: true
resync_tokens_per_s: 200
resync_burst: 2
resync_retry_after_ms: 20
readiness_quorum: 0.75
readiness_timeout_ms: 900
warm_checkpoint: true
checkpoint_period_s: 0.125
invariants: log
defect: stale_composite
enbs:
  - enb_id: 4
    name: north
    shard: 2
    dl_scheduler: local_pf
    ul_scheduler: local_pf
    control_delay_ms: 3.5
    remote_fallback_ttis: 6
    fallback_scheduler: local_pf
    control_rate_mbps: 12.5
    send_budget_bytes: 4096
  - enb_id: 7
ues:
  - enb: 7
    cqi: 9
    ul_cqi: 11
    traffic: cbr
    rate_mbps: 2.5
    ul_traffic: full_buffer
    ul_rate_mbps: 0.5
    cqi_trace: [3, 15, 0, 7]
    cqi_trace_period_ms: 250
faults:
  - at_s: 0.5
    kind: shard_drain
    enb: 1
    duration_s: 0.3
    delay_ms: 8
    count: 2
    period_s: 0.2
    shard: 1
  - kind: reorder
)";

std::string read_scenario(const std::string& name) {
  std::ifstream in(std::string(FLEXRAN_SCENARIO_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every guarded document by name: the scenario files, the demo, a
/// document that sets every key, and the emitted form of the fuzzer's
/// specs for seeds 1-8.
std::map<std::string, std::string> guarded_documents() {
  std::map<std::string, std::string> docs;
  for (const char* file : kScenarioFiles) docs[file] = read_scenario(file);
  docs["demo"] = kDemoScenario;
  docs["every_key"] = kEveryKey;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    verify::FuzzConfig config;
    config.seed = seed;
    docs["fuzz_seed_" + std::to_string(seed)] =
        scenario::scenario_to_yaml(verify::generate_scenario(config));
  }
  return docs;
}

TEST(ScenarioYaml, EmittedDocumentDigestsArePinned) {
  // FNV-1a of scenario_to_yaml(parse_scenario(doc)). A change here means a
  // document now parses or emits differently: a behavior change, not a
  // refactor.
  const std::map<std::string, std::uint64_t> pinned = {
      {"centralized_scheduling.yaml", 0x949f0dba2cfb59a5ull},
      {"chaos_master.yaml", 0xaeeefb3cc8398666ull},
      {"chaos_metrics.yaml", 0x7597991e783f57c8ull},
      {"chaos_overload.yaml", 0x66d1af1bf22ad159ull},
      {"chaos_recovery.yaml", 0x4de7a1649460b52cull},
      {"chaos_vsf.yaml", 0x0a7965fecea090baull},
      {"demo", 0x87b75e4af1700404ull},
      {"every_key", 0x012ba62c0adc90dfull},
      {"fuzz_seed_1", 0x382d09b349b7ce8full},
      {"fuzz_seed_2", 0x9f3b6aa2f2c04a2full},
      {"fuzz_seed_3", 0x257be2b887f3925aull},
      {"fuzz_seed_4", 0xcab0826dad7f6476ull},
      {"fuzz_seed_5", 0x2f8c417f8d792fc0ull},
      {"fuzz_seed_6", 0xcfcb7fc1181b177full},
      {"fuzz_seed_7", 0x5d91aed5a6beae1bull},
      {"fuzz_seed_8", 0x135ee55e9bfb0365ull},
      {"sharded_drain.yaml", 0x60316d28c54bc6cfull},
      {"sharded_failover.yaml", 0x694d26ec64442d43ull},
      {"sharded_scale.yaml", 0x77764f76bebfa6dfull},
      {"two_cell_mixed.yaml", 0x0f8c569dc2631125ull},
  };
  const auto docs = guarded_documents();
  for (const auto& [name, text] : docs) {
    Digest digest;
    const auto spec = scenario::parse_scenario(text);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.error().message;
    digest.add(scenario::scenario_to_yaml(*spec));
    const auto it = pinned.find(name);
    EXPECT_EQ(digest.value(), it == pinned.end() ? 0 : it->second)
        << "{\"" << name << "\", 0x" << std::hex << std::setw(16) << std::setfill('0')
        << digest.value() << "ull},";
  }
  EXPECT_EQ(pinned.size(), docs.size());
}

// ---------------------------------------------------------- rejections --

/// Parses `yaml` and returns the error message ("" when it was accepted).
std::string rejection(const std::string& yaml) {
  const auto spec = scenario::parse_scenario(yaml);
  return spec.ok() ? "" : spec.error().message;
}

const char* const kMinimal = "enbs:\n  - enb_id: 1\n";

TEST(ScenarioYaml, RejectsUnknownKeysInEverySection) {
  EXPECT_EQ(rejection(std::string("duraton_s: 3\n") + kMinimal),
            "top level: unknown key 'duraton_s'");
  EXPECT_EQ(rejection("enbs:\n  - enb_id: 1\n    nmae: east\n"),
            "enbs[0]: unknown key 'nmae'");
  EXPECT_EQ(rejection(std::string(kMinimal) + "ues:\n  - enb: 1\n  - cqi_trce: [1, 2]\n"),
            "ues[1]: unknown key 'cqi_trce'");
  EXPECT_EQ(rejection(std::string(kMinimal) + "faults:\n  - kind: heal\n    shrad: 0\n"),
            "faults[0]: unknown key 'shrad'");
}

TEST(ScenarioYaml, RejectsRepeatedKeys) {
  EXPECT_EQ(rejection(std::string("seed: 3\nseed: 4\n") + kMinimal),
            "top level: key 'seed' given twice");
  EXPECT_EQ(rejection(std::string(kMinimal) + "ues:\n  - enb: 1\n    cqi: 3\n    cqi: 9\n"),
            "ues[0]: key 'cqi' given twice");
}

TEST(ScenarioYaml, FlagsAreTrueOrFalse) {
  for (const char* flag : {"remote_scheduler", "observability", "master_recovery",
                           "warm_checkpoint"}) {
    for (const char* text : {"yes", "True", "1", ""}) {
      EXPECT_EQ(rejection(std::string(flag) + ": " + text + "\n" + kMinimal),
                std::string("top level: ") + flag + " must be true or false, not '" + text + "'");
    }
    const auto on = scenario::parse_scenario(std::string(flag) + ": true\n" + kMinimal);
    ASSERT_TRUE(on.ok()) << on.error().message;
  }
  const auto spec = scenario::parse_scenario(std::string("remote_scheduler: true\n") + kMinimal);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->remote_scheduler);
}

TEST(ScenarioYaml, TextKeysTakeScalarsOnly) {
  EXPECT_EQ(rejection("enbs:\n  - enb_id: 1\n    name:\n      first: a\n"),
            "enbs[0]: name must be a scalar");
  EXPECT_EQ(rejection(std::string("defect: {}\n") + kMinimal),
            "top level: defect must be a scalar");
}

TEST(ScenarioYaml, EveryFaultKindParsesFromItsName) {
  for (int k = 0; k <= static_cast<int>(scenario::FaultKind::shard_drain); ++k) {
    const auto kind = static_cast<scenario::FaultKind>(k);
    const auto spec = scenario::parse_scenario(
        std::string("shards: 2\n") + kMinimal + "faults:\n  - kind: " + scenario::to_string(kind) +
        "\n    shard: 1\n");
    ASSERT_TRUE(spec.ok()) << scenario::to_string(kind) << ": " << spec.error().message;
    EXPECT_EQ(spec->faults.at(0).kind, kind);
  }
  const auto message = rejection(std::string(kMinimal) + "faults:\n  - kind: meteor\n");
  EXPECT_EQ(message.find("faults[0]: kind must be partition | heal | delay_spike"), 0u) << message;
}

TEST(ScenarioYaml, EnbDefaultsFollowPositionAndId) {
  const auto spec = scenario::parse_scenario("enbs:\n  - name: a\n  - enb_id: 9\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec->enbs[0].enb_id, 1u);
  EXPECT_EQ(spec->enbs[1].name, "enb-9");
}

// A real key takes finite numbers only. NaN passes every range comparison,
// so `duration_s: nan` used to run zero cycles and exit 0; `inf` passed the
// open lower bound of `above(0)`.
TEST(ScenarioYaml, RealKeysRejectNonFiniteValues) {
  const std::string trace_ue = "ues:\n  - enb: 1\n    cqi_trace: [3]\n";
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"duration_s", "top level"},
      {"agent_timeout_ms", "top level"},
      {"agent_disconnect_timeout_ms", "top level"},
      {"request_timeout_ms", "top level"},
      {"metrics_period_s", "top level"},
      {"resync_tokens_per_s", "top level"},
      {"resync_burst", "top level"},
      {"resync_retry_after_ms", "top level"},
      {"readiness_quorum", "top level"},
      {"readiness_timeout_ms", "top level"},
      {"checkpoint_period_s", "top level"},
      {"control_delay_ms", "enbs[0]"},
      {"control_rate_mbps", "enbs[0]"},
      {"rate_mbps", "ues[0]"},
      {"ul_rate_mbps", "ues[0]"},
      {"cqi_trace_period_ms", "ues[0]"},
      {"at_s", "faults[0]"},
      {"duration_s", "faults[0]"},
      {"delay_ms", "faults[0]"},
      {"period_s", "faults[0]"},
  };
  for (const auto& [key, where] : keys) {
    for (const char* value : {"nan", "inf", "-inf", "NAN", "infinity"}) {
      std::string yaml;
      const std::string line = key + ": " + value + "\n";
      if (where == "top level") {
        yaml = line + kMinimal;
      } else if (where == "enbs[0]") {
        yaml = std::string(kMinimal) + "    " + line;
      } else if (where == "ues[0]") {
        yaml = std::string(kMinimal) + trace_ue + "    " + line;
      } else {
        yaml = std::string(kMinimal) + "faults:\n  - kind: heal\n    " + line;
      }
      EXPECT_EQ(rejection(yaml), where + ": " + key + " must be a finite number") << yaml;
    }
  }
}

// An item of a section must be a map of keys. A scalar item (`- 5`) or a
// bare `-` used to run as an item with every key at its default.
TEST(ScenarioYaml, SectionItemsMustBeMaps) {
  EXPECT_EQ(rejection(std::string(kMinimal) + "ues:\n  - enb: 1\n  - 5\n"),
            "ues[1]: must be a map of keys");
  EXPECT_EQ(rejection(std::string(kMinimal) + "ues:\n  -\n"), "ues[0]: must be a map of keys");
  EXPECT_EQ(rejection("enbs:\n  - [1, 2]\n"), "enbs[0]: must be a map of keys");
  EXPECT_EQ(rejection(std::string(kMinimal) + "faults:\n  - heal\n"),
            "faults[0]: must be a map of keys");
}

// Text values the YAML reader would read differently when written bare
// (a leading '#', surrounding spaces, quotes, a "key: value" look) survive
// emit then parse.
TEST(ScenarioYaml, TextValuesSurviveEmitAndParse) {
  for (const std::string name : {"#x", " padded ", "\"quoted\"", "a: b", "[1,2]", "{}", "",
                                  "'single'", "plain-name"}) {
    scenario::ScenarioSpec spec;
    spec.enbs.resize(1);
    spec.enbs[0].name = name;
    const auto back = scenario::parse_scenario(scenario::scenario_to_yaml(spec));
    ASSERT_TRUE(back.ok()) << "name [" << name << "]: " << back.error().message;
    EXPECT_EQ(back->enbs.at(0).name, name) << scenario::scenario_to_yaml(spec);
  }
}

// ------------------------------------------------------ YAML round trip --
//
// A seeded mutation corpus over the scenario files: truncations, bit
// flips, inserted bytes and line splices across files. For every mutant
// the parser accepts, dumping the tree and parsing the dump must give the
// same tree back, and the scenario parser must survive every mutant (the
// sanitizer builds run this too).

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  return lines;
}

std::vector<std::string> yaml_mutants() {
  std::vector<std::vector<std::string>> files;
  for (const char* file : kScenarioFiles) files.push_back(lines_of(read_scenario(file)));
  // Bytes that carry structure in the dialect, plus arbitrary ones.
  const std::string structural = " -:#[],'\"\n\t{}";
  std::vector<std::string> out;
  for (std::size_t f = 0; f < files.size(); ++f) {
    Prng prng(0x9a31u + f);
    std::string valid;
    for (const auto& line : files[f]) valid += line;
    for (int round = 0; round < 64; ++round) {  // truncation
      out.push_back(valid.substr(0, prng.below(valid.size())));
    }
    for (int round = 0; round < 384; ++round) {  // 1-4 bit flips
      std::string mutant = valid;
      for (std::size_t n = 1 + prng.below(4); n > 0; --n) {
        mutant[prng.below(mutant.size())] ^= static_cast<char>(1u << prng.below(8));
      }
      out.push_back(std::move(mutant));
    }
    for (int round = 0; round < 384; ++round) {  // 1-3 inserted bytes
      std::string mutant = valid;
      for (std::size_t n = 1 + prng.below(3); n > 0; --n) {
        const char byte = prng.below(2) == 0 ? structural[prng.below(structural.size())]
                                             : static_cast<char>(prng.next());
        mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(prng.below(mutant.size() + 1)),
                      byte);
      }
      out.push_back(std::move(mutant));
    }
    for (int round = 0; round < 256; ++round) {  // 1-2 lines from any file, re-indented
      auto lines = files[f];
      for (std::size_t n = 1 + prng.below(2); n > 0; --n) {
        const auto& donor = files[prng.below(files.size())];
        std::string line = donor[prng.below(donor.size())];
        line.insert(0, prng.below(3) * 2, ' ');
        if (prng.below(2) == 0 && line.find_first_not_of(' ') != std::string::npos) {
          line.erase(0, std::min<std::size_t>(2, line.find_first_not_of(' ')));
        }
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(prng.below(lines.size() + 1)),
                     std::move(line));
      }
      std::string mutant;
      for (const auto& line : lines) mutant += line;
      out.push_back(std::move(mutant));
    }
  }
  return out;
}

TEST(ScenarioYaml, AcceptedMutantsRoundTripThroughDump) {
  std::size_t accepted = 0;
  std::size_t scenarios = 0;
  std::size_t failures = 0;
  std::string first_failure;
  for (const auto& mutant : yaml_mutants()) {
    if (scenario::parse_scenario(mutant).ok()) ++scenarios;
    const auto doc = util::parse_yaml(mutant);
    if (!doc.ok()) continue;
    ++accepted;
    const std::string dumped = doc->dump();
    const auto again = util::parse_yaml(dumped);
    if (again.ok() && *again == *doc) continue;
    if (failures++ == 0) first_failure = "---- mutant\n" + mutant + "---- dump\n" + dumped;
  }
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(scenarios, 1000u);
  EXPECT_EQ(failures, 0u) << first_failure;
  std::printf("%zu mutants accepted by parse_yaml, %zu by parse_scenario\n", accepted,
              scenarios);
}

}  // namespace
}  // namespace flexran
