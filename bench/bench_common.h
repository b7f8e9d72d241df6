// Shared fixture for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper and prints
// it as an ASCII table (series by rows). Absolute numbers come from the
// calibrated simulator; the *shapes* match the paper (see EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "obs/flight.h"

#include "baselines/adjustment_cost.h"
#include "common/log.h"
#include "common/table.h"
#include "obs/obs.h"
#include "storage/filesystem.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"
#include "train/models.h"
#include "train/throughput.h"

namespace elan::bench {

/// The paper's testbed: 8 servers x 8 GPUs.
struct Testbed {
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

/// The scheduling cluster: 128 GPUs (16 nodes).
struct SchedTestbed {
  topo::Topology topology{topo::TopologySpec{.nodes = 16}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

/// Measures obs::event(), the call every protocol event site makes, and
/// gates its disabled path: with the recorder and the tracer both off it is
/// two relaxed atomic loads, so it must sit in the measurement noise (the
/// 500 ns/op ceiling is ~100x the typical cost — the gate only catches
/// someone accidentally putting work before the enabled() checks). The
/// enabled figure is the recorder alone (msg.send is not a traced kind).
/// Returns {disabled_ns, enabled_ns} for the header line.
inline std::pair<double, double> measure_flight_overhead() {
  using clock = std::chrono::steady_clock;
  constexpr int kIters = 200000;
  auto& tracer = obs::Tracer::instance();
  const bool flight_was_enabled = obs::FlightRecorder::enabled();
  const bool trace_was_enabled = obs::Tracer::enabled();
  const auto time_loop = [&] {
    const auto t0 = clock::now();
    for (int i = 0; i < kIters; ++i) {
      obs::event(obs::FlightEventKind::kMsgSend, "bench");
    }
    return std::chrono::duration<double, std::nano>(clock::now() - t0)
               .count() / kIters;
  };
  tracer.set_enabled(false);
  obs::FlightRecorder::set_enabled(false);
  const double disabled_ns = time_loop();
  obs::FlightRecorder::set_enabled(true);
  const double enabled_ns = time_loop();
  obs::FlightRecorder::set_enabled(flight_was_enabled);
  tracer.set_enabled(trace_was_enabled);
  // Headers run before any real work: dropping the measurement events keeps
  // an ELAN_FLIGHT= record free of 200k "bench" entries.
  obs::FlightRecorder::instance().clear();
  require(disabled_ns < 500.0,
          "obs::event disabled path exceeds the noise ceiling");
  return {disabled_ns, enabled_ns};
}

inline void print_header(const std::string& title, const std::string& note = "") {
  // Every bench calls this first, so it doubles as the observability hook:
  // ELAN_TRACE=/ELAN_METRICS= give any bench a trace / metrics sidecar
  // without per-binary wiring (dumped via atexit).
  obs::init_from_env();
  const auto [disabled_ns, enabled_ns] = measure_flight_overhead();
  std::printf("\n=== %s ===\n", title.c_str());
  // A wall-clock figure: on stderr, so two runs of the same code print the
  // same stdout.
  std::fprintf(stderr, "obs::event: disabled %.1f ns/op, flight recorder on %.1f ns/op\n",
               disabled_ns, enabled_ns);
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

inline void print_table(const Table& table) { table.print(std::cout); }

/// Stable decimal formatting for the BENCH_*.json sidecars: six significant
/// digits, no locale, so committed baselines diff cleanly across machines.
inline std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Writes one BENCH_*.json sidecar (machine-readable counterpart of the
/// ASCII table every bench prints). Throws on IO failure so CI can't upload
/// a silently-empty artifact.
inline void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  ELAN_REQUIRE(out.good(), "bench: cannot open " + path);
  out << json;
  ELAN_REQUIRE(out.good(), "bench: short write to " + path);
  std::printf("wrote %s\n", path.c_str());
}

/// Extracts the flat `"gate": { "slug": number, ... }` object a BENCH json
/// carries for regression checks. Deliberately minimal: gates are written by
/// write_json_file above, one "key": value pair per line.
inline std::map<std::string, double> read_json_gate(const std::string& path) {
  std::ifstream in(path);
  ELAN_REQUIRE(in.good(), "bench: cannot read baseline " + path);
  std::map<std::string, double> gate;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside) {
      if (line.find("\"gate\"") != std::string::npos) inside = true;
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const auto open = line.find('"');
    const auto close = line.find('"', open + 1);
    const auto colon = line.find(':', close + 1);
    if (open == std::string::npos || close == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    gate[line.substr(open + 1, close - open - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  ELAN_REQUIRE(!gate.empty(), "bench: no gate object in " + path);
  return gate;
}

/// Which way a gate value improves.
enum class Better { kHigher, kLower };

/// The --baseline regression gate every bench shares (CI perf-smoke). Each
/// key of the committed baseline's gate object must be in `current`. A
/// bigger-is-better value fails when it falls more than `max_regression`
/// below its baseline; a smaller-is-better one fails when it rises more than
/// `max_regression` above it, unless the baseline is <= 0. Prints one line
/// per key, and a summary line when every key passes; returns that verdict.
inline bool check_baseline_gate(const std::map<std::string, double>& current,
                                const std::string& baseline_path, double max_regression,
                                Better better) {
  bool passed = true;
  for (const auto& [key, base] : read_json_gate(baseline_path)) {
    const auto it = current.find(key);
    if (it == current.end()) {
      std::fprintf(stderr, "FAIL: gate key '%s' missing from current run\n", key.c_str());
      passed = false;
      continue;
    }
    const bool ok = better == Better::kHigher
                        ? it->second >= base * (1.0 - max_regression)
                        : it->second <= base * (1.0 + max_regression) || base <= 0;
    std::printf("gate %-32s base %-10s now %-10s %s\n", key.c_str(),
                json_number(base).c_str(), json_number(it->second).c_str(),
                ok ? "ok" : "REGRESSED");
    passed = passed && ok;
  }
  if (passed) {
    std::printf("baseline gate passed (max regression %.0f%%)\n", max_regression * 100.0);
  }
  return passed;
}

/// Worker-letter labels used by Fig 15 ("Models are denoted by A - E").
inline const char* model_letter(const std::string& name) {
  if (name == "ResNet-50") return "A";
  if (name == "VGG-19") return "B";
  if (name == "MobileNet-v2") return "C";
  if (name == "Seq2Seq") return "D";
  if (name == "Transformer") return "E";
  return "?";
}

}  // namespace elan::bench
