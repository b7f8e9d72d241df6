// Tests of trace/metrics CSV import-export and the topology printer.
#include <gtest/gtest.h>

#include <sstream>

#include "sched/trace.h"
#include "sched/trace_io.h"
#include "topology/printer.h"

namespace elan::sched {
namespace {

std::vector<SchedJobSpec> sample_trace() {
  topo::Topology topology{topo::TopologySpec{.nodes = 16}};
  topo::BandwidthModel bandwidth;
  train::ThroughputModel tm(topology, bandwidth);
  TraceParams p;
  p.span = hours(4.0);
  p.seed = 42;
  return TraceGenerator(tm, p).generate();
}

TEST(TraceIo, RoundTrip) {
  const auto trace = sample_trace();
  ASSERT_GT(trace.size(), 5u);
  std::stringstream buf;
  write_trace_csv(buf, trace);
  const auto restored = read_trace_csv(buf);
  ASSERT_EQ(restored.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(restored[i].id, trace[i].id);
    EXPECT_DOUBLE_EQ(restored[i].submit_time, trace[i].submit_time);
    EXPECT_EQ(restored[i].model.name, trace[i].model.name);
    EXPECT_EQ(restored[i].req_res, trace[i].req_res);
    EXPECT_EQ(restored[i].min_res, trace[i].min_res);
    EXPECT_EQ(restored[i].max_res, trace[i].max_res);
    EXPECT_EQ(restored[i].total_samples, trace[i].total_samples);
  }
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream buf("not,a,trace\n1,2,3\n");
  EXPECT_THROW(read_trace_csv(buf), InvalidArgument);
}

TEST(TraceIo, RejectsMalformedRow) {
  std::stringstream buf;
  buf << "id,submit_time,model,req_res,min_res,max_res,base_total_batch,total_samples\n";
  buf << "1,2,ResNet-50,4\n";  // too few cells
  EXPECT_THROW(read_trace_csv(buf), InvalidArgument);
}

// Number cells are parsed whole: a word, a number with trailing characters
// or an empty cell is an error, never a silently truncated value.
TEST(TraceIo, RejectsNumbersThatAreNotWholeNumbers) {
  for (const char* submit_time : {"abc", "12x", ""}) {
    std::stringstream buf;
    buf << "id,submit_time,model,req_res,min_res,max_res,base_total_batch,total_samples\n";
    buf << "1," << submit_time << ",ResNet-50,4,2,8,128,1000\n";
    EXPECT_THROW(read_trace_csv(buf), InvalidArgument) << "submit_time '" << submit_time << "'";
  }
  std::stringstream buf;
  buf << "id,submit_time,model,req_res,min_res,max_res,base_total_batch,total_samples\n";
  buf << "1,0,ResNet-50,4,,8,128,1000\n";  // empty min_res
  EXPECT_THROW(read_trace_csv(buf), InvalidArgument);
}

TEST(TraceIo, RejectsInconsistentBounds) {
  std::stringstream buf;
  buf << "id,submit_time,model,req_res,min_res,max_res,base_total_batch,total_samples\n";
  buf << "1,0,ResNet-50,4,8,2,128,1000\n";  // min > req > max
  EXPECT_THROW(read_trace_csv(buf), InvalidArgument);
}

TEST(TraceIo, UtilizationCsv) {
  std::stringstream buf;
  write_utilization_csv(buf, {{0.0, 0.5}, {10.0, 0.75}});
  EXPECT_EQ(buf.str(), "time_seconds,utilization\n0,0.5\n10,0.75\n");
}

TEST(TopologyPrinter, LinkMatrixShowsAllLevels) {
  topo::Topology topology{topo::TopologySpec{}};
  const auto m = topo::link_matrix(topology);  // node 0: 8 GPUs
  EXPECT_NE(m.find(" X "), std::string::npos);
  EXPECT_NE(m.find("P2P"), std::string::npos);
  EXPECT_NE(m.find("SHM"), std::string::npos);
  EXPECT_NE(m.find("QPI"), std::string::npos);
  // NET appears only across nodes.
  EXPECT_EQ(m.find("NET"), std::string::npos);
  const auto cross = topo::link_matrix(topology, {0, 8});
  EXPECT_NE(cross.find("NET"), std::string::npos);
}

TEST(TopologyPrinter, TreeListsEveryGpu) {
  topo::Topology topology{topo::TopologySpec{.nodes = 2}};
  const auto t = topo::tree(topology);
  for (int g = 0; g < topology.total_gpus(); ++g) {
    EXPECT_NE(t.find("GPU" + std::to_string(g)), std::string::npos) << g;
  }
  EXPECT_NE(topo::legend().find("InfiniBand"), std::string::npos);
}

}  // namespace
}  // namespace elan::sched
