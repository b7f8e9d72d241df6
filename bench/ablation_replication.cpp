// Ablation: what each ingredient of the concurrent IO-free replication
// mechanism (§IV) buys, and what chunk pipelining adds on top.
//
// Table 1 compares the whole-blob schedules of the four source strategies
// (ReplicationPlanner::chunk_plan with whole_blob_options) against the
// checkpoint path (GPU->CPU->shared FS->CPU->GPU) Elan's "IO-free" design
// avoids.
//
// Table 2 is the chunk-pipelining ablation: for each source:joiner ratio it
// reports the whole-blob makespan, the chunk-pipelined makespan
// (ReplicationPlanner::chunk_plan, default 4 MiB chunk),
// their ratio, the serialised transfer time and the achieved concurrency
// (serial / makespan). The headline scenario is 2 sources feeding 6 joiners
// across a single QPI link: whole-blob planning serialises every
// cross-socket transfer on the shared QPI resource, while chunk relaying
// turns verified prefixes of early joiners into additional sources.
//
// Results go to stdout and BENCH_replication.json (same convention as
// BENCH_fault.json / BENCH_kernels.json). The JSON carries a flat "gate"
// object of chunk-pipelined kElan makespans; --baseline compares the gate
// against a committed baseline and fails on >--max-regression slowdown, so
// CI's perf-smoke job catches data-plane regressions.
//
//   ./ablation_replication [--out BENCH_replication.json]
//                          [--baseline bench/BENCH_replication_baseline.json]
//                          [--max-regression 0.2]
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "elan/replication.h"

namespace {

using namespace elan;

struct Scenario {
  std::string label;
  std::string slug;  // gate key prefix
  topo::TopologySpec spec;
  std::vector<topo::GpuId> sources;
  std::vector<topo::GpuId> joiners;
};

std::vector<topo::GpuId> range(int from, int to) {
  std::vector<topo::GpuId> v;
  for (int g = from; g < to; ++g) v.push_back(g);
  return v;
}

const char* strategy_name(ReplicationStrategy s) {
  switch (s) {
    case ReplicationStrategy::kElan: return "elan";
    case ReplicationStrategy::kNearestSerial: return "nearest-serial";
    case ReplicationStrategy::kSingleSource: return "single-source";
    case ReplicationStrategy::kBlindSources: return "blind-sources";
  }
  return "?";
}

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("out", "BENCH_replication.json", "output JSON path");
  flags.define("baseline", "", "baseline BENCH_replication.json to gate against");
  flags.define("max-regression", "0.2",
               "allowed fractional makespan regression vs --baseline");
  try {
    flags.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }

  bench::Testbed tb;
  bench::print_header(
      "Ablation — replication mechanism design choices",
      "State: ResNet-50 (195 MiB GPU + 65 KiB CPU). Times in ms.\n"
      "Chunked columns use the default 4 MiB chunk.");

  const auto m = train::resnet50();
  const Bytes gpu_bytes = m.gpu_state_bytes();
  const Bytes cpu_bytes = 65_KiB;

  // ---- Table 1: whole-blob design ablation (the paper's §IV comparison). --
  {
    struct Shape {
      std::string label;
      std::vector<topo::GpuId> existing;
      std::vector<topo::GpuId> joining;
    };
    std::vector<Shape> shapes;
    shapes.push_back({"4->8 (one node)", range(0, 4), range(4, 8)});
    shapes.push_back({"8->16 (adjacent node)", range(0, 8), range(8, 16)});
    shapes.push_back({"16->32 (two new nodes)", range(0, 16), range(16, 32)});
    shapes.push_back({"16->64 (six new nodes)", range(0, 16), range(16, 64)});
    // One seed worker per node, grow each node locally: topology-aware source
    // choice keeps every transfer on fast intra-node links.
    {
      Shape s;
      s.label = "8 seeds -> 64 (node-local)";
      for (int node = 0; node < 8; ++node) {
        s.existing.push_back(node * 8);
        for (int g = 1; g < 8; ++g) s.joining.push_back(node * 8 + g);
      }
      shapes.push_back(std::move(s));
    }

    Table t({"scenario", "Elan", "nearest-serial", "single-source",
             "blind-sources", "checkpoint path"});
    for (const auto& shape : shapes) {
      ReplicationRequest req;
      int id = 0;
      for (auto g : shape.existing) req.existing.emplace(id++, g);
      for (auto g : shape.joining) req.joining.emplace(id++, g);
      req.gpu_state_bytes = gpu_bytes;
      req.cpu_state_bytes = cpu_bytes;
      const int joining = static_cast<int>(shape.joining.size());

      std::vector<std::string> row{shape.label};
      for (auto strategy :
           {ReplicationStrategy::kElan, ReplicationStrategy::kNearestSerial,
            ReplicationStrategy::kSingleSource, ReplicationStrategy::kBlindSources}) {
        const ReplicationPlanner planner(tb.topology, tb.bandwidth, strategy);
        const ChunkSchedule blob = planner.chunk_plan(req, whole_blob_options(req));
        row.push_back(fmt(1000.0 * blob.total_time, "%.0f"));
      }
      // Checkpoint path: rank 0 D2H + FS write, then all joiners read + H2D.
      const Seconds ckpt = tb.bandwidth.host_device_copy_time(req.gpu_state_bytes) +
                           tb.fs.concurrent_write_time(1, req.gpu_state_bytes) +
                           tb.fs.concurrent_read_time(joining, req.gpu_state_bytes) +
                           tb.bandwidth.host_device_copy_time(req.gpu_state_bytes);
      row.push_back(fmt(1000.0 * ckpt, "%.0f"));
      t.add_row(row);
    }
    bench::print_table(t);
  }

  // ---- Table 2: chunk pipelining across source:joiner ratios. ------------
  std::vector<Scenario> scenarios;
  // Headline (acceptance) scenario: two sockets, one QPI link, 3 GPUs per
  // PCIe switch. Sources sit on socket 0 (GPUs 0-5), joiners fill socket 1
  // (GPUs 6-11): every source->joiner transfer crosses the single QPI link.
  const topo::TopologySpec qpi{.nodes = 1,
                               .sockets_per_node = 2,
                               .bridges_per_socket = 1,
                               .switches_per_bridge = 2,
                               .gpus_per_switch = 3};
  scenarios.push_back({"2s:6j single QPI", "2s6j_qpi", qpi, range(0, 2), range(6, 12)});
  scenarios.push_back({"1s:7j one node", "1s7j_node", topo::TopologySpec{},
                       range(0, 1), range(1, 8)});
  scenarios.push_back({"4s:4j one node", "4s4j_node", topo::TopologySpec{},
                       range(0, 4), range(4, 8)});
  scenarios.push_back({"4s:12j two nodes", "4s12j_xnode", topo::TopologySpec{},
                       range(0, 4), range(4, 16)});
  scenarios.push_back({"8s:8j adjacent node", "8s8j_xnode", topo::TopologySpec{},
                       range(0, 8), range(8, 16)});

  Table t2({"scenario", "strategy", "blob (ms)", "chunked (ms)", "ratio",
            "serial (ms)", "conc", "chunks", "relayed"});
  std::ostringstream rows_json;
  std::ostringstream gate_json;
  double gate_elan_2s6j_blob = 0;
  double gate_elan_2s6j_chunked = 0;
  bool first_row = true;

  for (const auto& sc : scenarios) {
    const topo::Topology topology(sc.spec);
    const topo::BandwidthModel bandwidth;
    ReplicationRequest req;
    int id = 0;
    for (auto g : sc.sources) req.existing.emplace(id++, g);
    for (auto g : sc.joiners) req.joining.emplace(id++, g);
    req.gpu_state_bytes = gpu_bytes;
    req.cpu_state_bytes = cpu_bytes;

    for (auto strategy :
         {ReplicationStrategy::kElan, ReplicationStrategy::kNearestSerial,
          ReplicationStrategy::kSingleSource, ReplicationStrategy::kBlindSources}) {
      const ReplicationPlanner planner(topology, bandwidth, strategy);
      const ChunkSchedule blob = planner.chunk_plan(req, whole_blob_options(req));
      const ChunkSchedule chunked = planner.chunk_plan(req);
      const double ratio = chunked.total_time / blob.total_time;
      const double concurrency =
          chunked.total_time > 0 ? chunked.serial_time / chunked.total_time : 1.0;
      int relayed = 0;
      for (const auto& tr : chunked.transfers) relayed += tr.relay ? 1 : 0;

      t2.add(sc.label, strategy_name(strategy), fmt(1000.0 * blob.total_time),
             fmt(1000.0 * chunked.total_time), fmt(ratio), fmt(1000.0 * chunked.serial_time),
             fmt(concurrency, "%.1f"), static_cast<int>(chunked.num_chunks), relayed);

      rows_json << (first_row ? "" : ",\n") << "    {\"scenario\": \"" << sc.slug
                << "\", \"strategy\": \"" << strategy_name(strategy)
                << "\", \"sources\": " << sc.sources.size()
                << ", \"joiners\": " << sc.joiners.size()
                << ", \"whole_blob_s\": " << bench::json_number(blob.total_time)
                << ", \"chunked_s\": " << bench::json_number(chunked.total_time)
                << ", \"ratio\": " << bench::json_number(ratio)
                << ", \"serial_s\": " << bench::json_number(chunked.serial_time)
                << ", \"concurrency\": " << bench::json_number(concurrency)
                << ", \"num_chunks\": " << chunked.num_chunks
                << ", \"transfers\": " << chunked.transfers.size()
                << ", \"relayed\": " << relayed << "}";
      first_row = false;

      if (strategy == ReplicationStrategy::kElan) {
        gate_json << "    \"" << sc.slug
                  << "_elan_chunked_s\": " << bench::json_number(chunked.total_time)
                  << ",\n";
        if (sc.slug == "2s6j_qpi") {
          gate_elan_2s6j_blob = blob.total_time;
          gate_elan_2s6j_chunked = chunked.total_time;
        }
      }
    }
  }
  bench::print_table(t2);

  // ---- JSON sidecar. -----------------------------------------------------
  std::ostringstream json;
  json << "{\n  \"chunk_bytes\": " << kDefaultReplicationChunkBytes
       << ",\n  \"gpu_state_bytes\": " << gpu_bytes << ",\n  \"rows\": [\n"
       << rows_json.str() << "\n  ],\n  \"gate\": {\n"
       << gate_json.str() << "    \"2s6j_qpi_elan_pipelining_ratio\": "
       << bench::json_number(gate_elan_2s6j_chunked / gate_elan_2s6j_blob)
       << "\n  }\n}\n";
  bench::write_json_file(flags.get("out"), json.str());

  int rc = 0;

  // ---- Acceptance: chunk pipelining must beat whole-blob where it matters.
  const double headline_ratio = gate_elan_2s6j_chunked / gate_elan_2s6j_blob;
  std::printf("headline 2s:6j single-QPI: chunked/blob = %.3f (required <= 0.6)\n",
              headline_ratio);
  if (!(headline_ratio <= 0.6)) {
    std::fprintf(stderr,
                 "FAIL: chunk-pipelined kElan makespan %.4fs is not <= 0.6x "
                 "whole-blob %.4fs on 2-source/6-joiner single-QPI\n",
                 gate_elan_2s6j_chunked, gate_elan_2s6j_blob);
    rc = 1;
  }

  // ---- Baseline regression gate (CI perf-smoke). -------------------------
  // Gate values are makespans and a makespan ratio — smaller is better.
  if (!flags.get("baseline").empty() &&
      !bench::check_baseline_gate(bench::read_json_gate(flags.get("out")),
                                  flags.get("baseline"),
                                  flags.get_double("max-regression"),
                                  bench::Better::kLower)) {
    rc = 1;
  }

  return rc;
}
