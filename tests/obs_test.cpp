// Observability layer: tracer, metrics registry, trace report and the
// thread-safe logger. The concurrency-heavy cases here also run under the
// tsan label (see CMakeLists) with tracing forced on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <map>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "elan/job.h"
#include "fault/fault.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "sched/metrics.h"
#include "storage/filesystem.h"
#include "temp_path.h"
#include "train/models.h"

namespace elan {
namespace {

// The tracer is process-global; every test starts from a clean, disabled one
// (and with the flight recorder, the other sink of obs::event, off).
struct TracerTest : ::testing::Test {
  void SetUp() override {
    obs::FlightRecorder::set_enabled(false);
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().set_pid(1);
    obs::Tracer::instance().clear();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  {
    ELAN_TRACE_SCOPE("test", "noop");
    obs::Tracer::instance().instant("test", "noop_instant", obs::Tracer::now_us());
    obs::event(obs::FlightEventKind::kAmPhase, "am/test", "ready", 1, 2, 3);
  }
  obs::Tracer::instance().complete("test", "explicit", 0, 1);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST_F(TracerTest, MultiThreadSpansAllFlushed) {
  obs::Tracer::instance().set_enabled(true);
  constexpr int kThreads = 8, kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ELAN_TRACE_SCOPE("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpans));
  std::set<std::uint64_t> tids;
  for (const auto& e : events) {
    EXPECT_EQ(e.phase, 'X');
    EXPECT_STREQ(e.category, "test");
    tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TracerTest, SimClockStampsVirtualTime) {
  obs::Tracer::instance().set_enabled(true);
  sim::Simulator sim;
  obs::RunScope run(sim);
  sim.schedule(2.5, [] {
    obs::Tracer::instance().instant("test", "at_2500ms", obs::Tracer::now_us());
  });
  sim.run();
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().phase, 'i');
  EXPECT_DOUBLE_EQ(events.front().ts_us, 2.5e6);
}

// Each thread reads its own run's clock: two runs bound on two threads at
// once stamp their own virtual times, and a thread outside any run keeps the
// real clock.
TEST_F(TracerTest, RunScopesOnTwoThreadsStampTheirOwnVirtualTime) {
  obs::Tracer::instance().set_enabled(true);
  std::latch both_bound(2);
  std::map<double, std::uint64_t> tid_at;  // virtual time -> stamping thread
  const auto run = [&both_bound](double at) {
    sim::Simulator sim;
    obs::RunScope scope(sim);
    both_bound.arrive_and_wait();  // the two scopes overlap in wall time
    sim.schedule(at, [] {
      obs::Tracer::instance().instant("test", "stamp", obs::Tracer::now_us());
    });
    sim.run();
  };
  std::thread first(run, 1.5);
  std::thread second(run, 4.0);
  first.join();
  second.join();
  EXPECT_FALSE(obs::Tracer::instance().has_custom_clock());
  for (const auto& e : obs::Tracer::instance().snapshot()) tid_at[e.ts_us] = e.tid;
  ASSERT_EQ(tid_at.size(), 2u);
  ASSERT_TRUE(tid_at.count(1.5e6));
  ASSERT_TRUE(tid_at.count(4.0e6));
  EXPECT_NE(tid_at[1.5e6], tid_at[4.0e6]);
}

TEST_F(TracerTest, ExplicitTimestampAndTidLanes) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.complete("test", "lane_a", 100.0, 50.0, "{\"k\":1}", /*tid=*/7);
  tracer.complete("test", "lane_b", 120.0, 50.0, {}, /*tid=*/9);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, 7u);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 100.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 50.0);
  EXPECT_EQ(events[1].tid, 9u);
}

TEST_F(TracerTest, JsonRoundTripsThroughReport) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.set_pid(3, "round trip \"quoted\"");
  tracer.complete("cat", "span", 1000.0, 2000.0);
  tracer.complete("cat", "span", 5000.0, 1000.0);
  tracer.instant("cat", "tick", tracer.now_us());
  std::string json = tracer.to_json();
  // The report reads JSON from any producer; the tracer writes no counter
  // samples, so append one by hand.
  json.insert(json.rfind(']'),
              ",{\"ph\":\"C\",\"cat\":\"cat\",\"name\":\"load\",\"ts\":0,\"pid\":3,"
              "\"tid\":0,\"args\":{\"value\":0.5}}");

  const auto summary = obs::summarize_trace_json(json);
  EXPECT_EQ(summary.spans, 2u);
  EXPECT_EQ(summary.instants, 1u);
  EXPECT_EQ(summary.counter_samples, 1u);
  ASSERT_EQ(summary.rows.size(), 1u);
  EXPECT_EQ(summary.rows[0].category, "cat");
  EXPECT_EQ(summary.rows[0].name, "span");
  EXPECT_EQ(summary.rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(summary.rows[0].total_ms, 3.0);
  EXPECT_DOUBLE_EQ(summary.rows[0].max_ms, 2.0);
  // No adjustment spans in this trace: shares are unavailable.
  EXPECT_DOUBLE_EQ(summary.adjustment_ms, 0.0);
  EXPECT_LT(summary.rows[0].adjustment_share, 0.0);
}

TEST_F(TracerTest, ReportRejectsMalformedJson) {
  EXPECT_THROW(obs::summarize_trace_json("{\"traceEvents\": [}"), InvalidArgument);
  EXPECT_THROW(obs::summarize_trace_json("{\"notTraceEvents\": []}"), InvalidArgument);
}

// A trace file is outside input: nesting past the parser's bound of 64 is an
// error naming where it starts, not a stack overflow.
TEST_F(TracerTest, ReportRejectsDeepNesting) {
  const std::string head = "{\"traceEvents\":";
  try {
    obs::summarize_trace_json(head + std::string(200'000, '['));
    FAIL() << "a 200,000-deep document parsed";
  } catch (const InvalidArgument& e) {
    // The object is level 1, so the 64th '[' would open level 65.
    const std::string where = "at offset " + std::to_string(head.size() + 63);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 " + where), std::string::npos)
        << e.what();
  }
  // 64 levels parse; the 65th is the first the bound rejects.
  const auto nested = [&head](std::size_t arrays) {
    return head + std::string(arrays, '[') + std::string(arrays, ']') + "}";
  };
  EXPECT_NO_THROW(obs::summarize_trace_json(nested(63)));
  EXPECT_THROW(obs::summarize_trace_json(nested(64)), InvalidArgument);
}

// The acceptance scenario: a scale-out whose new workers sit next to their
// sources (one pair per node) replicates over distinct PCIe switches, so the
// per-transfer spans must overlap in virtual time — §IV-3's concurrency made
// visible. Coordination rounds must land on per-worker lanes.
TEST_F(TracerTest, ScaleOutTraceShowsConcurrentReplication) {
  obs::Tracer::instance().set_enabled(true);

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  obs::RunScope run(sim);

  JobConfig c;
  c.model = train::resnet50();
  c.initial_workers = 4;
  c.initial_total_batch = 128;
  c.initial_gpus = {0, 8, 16, 24};  // one worker per node
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(500);
  job.start();
  sim.schedule(1.0, [&] { job.request_scale_out({1, 9, 17, 25}); });
  sim.run();
  ASSERT_EQ(job.adjustments().size(), 1u);
  const auto& adj = job.adjustments().front();

  const auto events = obs::Tracer::instance().snapshot();
  std::vector<obs::TraceEvent> transfers;
  std::set<std::uint64_t> coordination_tids;
  double adjustment_span_ms = -1;
  for (const auto& e : events) {
    if (std::string_view(e.category) == "replication" && e.name == "transfer") {
      transfers.push_back(e);
    }
    if (std::string_view(e.category) == "coordination" && e.name == "round") {
      coordination_tids.insert(e.tid);
    }
    if (std::string_view(e.category) == "adjustment" && e.name == "adjustment") {
      adjustment_span_ms = e.dur_us / 1000.0;
    }
  }

  // One transfer per joining worker, on that worker's tid lane.
  ASSERT_EQ(transfers.size(), 4u);
  std::set<std::uint64_t> transfer_tids;
  for (const auto& t : transfers) transfer_tids.insert(t.tid);
  EXPECT_EQ(transfer_tids, (std::set<std::uint64_t>{4, 5, 6, 7}));

  // All four cross distinct PCIe switches: every pair of spans overlaps.
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    for (std::size_t j = i + 1; j < transfers.size(); ++j) {
      const auto& a = transfers[i];
      const auto& b = transfers[j];
      EXPECT_LT(std::max(a.ts_us, b.ts_us),
                std::min(a.ts_us + a.dur_us, b.ts_us + b.dur_us))
          << "transfers " << i << " and " << j << " do not overlap";
    }
  }

  // Coordination rounds are attributed per worker (the original four lanes,
  // plus the joined workers' lanes after the adjustment).
  EXPECT_GE(coordination_tids.size(), 4u);
  EXPECT_TRUE(coordination_tids.count(0));
  EXPECT_TRUE(coordination_tids.count(4));

  // The whole-adjustment span matches the job's own record, and the report
  // reproduces the per-phase totals from the exported JSON alone.
  ASSERT_GT(adjustment_span_ms, 0.0);
  EXPECT_NEAR(adjustment_span_ms, adj.pause_time() * 1000.0, 1e-6);
  const auto summary = obs::summarize_trace_json(obs::Tracer::instance().to_json());
  EXPECT_NEAR(summary.adjustment_ms, adj.pause_time() * 1000.0, 1e-6);
  bool found_replication_phase = false;
  for (const auto& row : summary.rows) {
    if (row.category == "adjustment" && row.name == "replication") {
      found_replication_phase = true;
      EXPECT_NEAR(row.total_ms, adj.breakdown.replication * 1000.0, 1e-6);
    }
    if (row.category == "replication" && row.name == "transfer") {
      EXPECT_EQ(row.count, 4u);
      // Four fully-overlapping transfers: their summed time exceeds the
      // replication phase wall time (that is what the >1 share flags).
      EXPECT_GT(row.total_ms, adj.breakdown.replication * 1000.0 * 1.5);
    }
  }
  EXPECT_TRUE(found_replication_phase);
}

// The phase span start is stamped when an AM is built or recovered, traced
// or not: the recovered AM's first span starts at its recovery, not at t=0.
TEST_F(TracerTest, RecoveredAmPhaseSpanStartsAtRecovery) {
  obs::Tracer::instance().set_enabled(true);
  const LogLevel level = Logger::level();
  Logger::set_level(LogLevel::kOff);

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  obs::RunScope run(sim);

  JobConfig c;
  c.model = train::mobilenet_v2_cifar();
  c.initial_workers = 2;
  c.initial_total_batch = 64;
  c.worker_params.start_mean = 1.0;
  c.worker_params.start_stddev = 0.2;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(1000000);
  sim.schedule(6.0, [&] { job.crash_master(); });
  sim.schedule(9.0, [&] { job.recover_master(); });
  sim.schedule(10.0, [&] { job.request_scale_out({2}); });
  sim.schedule(20.0, [&] { job.stop(); });
  job.start();
  ASSERT_TRUE(sim.run_bounded(5'000'000)) << "run did not drain";
  Logger::set_level(level);
  ASSERT_EQ(job.adjustments().size(), 1u);

  std::vector<obs::TraceEvent> phases;
  for (const auto& e : obs::Tracer::instance().snapshot()) {
    if (std::string_view(e.category) == "master") phases.push_back(e);
  }
  ASSERT_FALSE(phases.empty());
  std::sort(phases.begin(), phases.end(),
            [](const obs::TraceEvent& x, const obs::TraceEvent& y) { return x.ts_us < y.ts_us; });
  EXPECT_EQ(phases.front().name, "phase/steady");
  EXPECT_GE(phases.front().ts_us, 9.0e6) << "the recovered AM's first span reaches back to "
                                         << phases.front().ts_us << " us";
}

std::string flight_event_args(const obs::FlightEvent& e) {
  const obs::FlightEventInfo row = obs::event_info(static_cast<obs::FlightEventKind>(e.kind));
  std::string args = "{\"actor\":\"" + obs::json_escape(e.actor) + "\",\"detail\":\"" +
                     obs::json_escape(e.detail) + "\"";
  const std::uint64_t values[3] = {e.a, e.b, e.c};
  for (int i = 0; i < 3; ++i) {
    if (row.labels[i] != nullptr) {
      args += ",\"" + std::string(row.labels[i]) + "\":" + std::to_string(values[i]);
    }
  }
  return args + "}";
}

// One call per protocol event: with both sinks on, every traced kind's
// instants and flight events match one for one, in order, at the same time
// with the same actor, detail and labelled fields, and no untraced kind
// emits an instant. The run evicts a joiner that never reports, loses a
// replication source mid-stream and arms a link window.
TEST_F(TracerTest, FlightAndTraceAgree) {
  obs::Tracer::instance().set_enabled(true);
  obs::FlightRecorder::set_enabled(true);
  const LogLevel level = Logger::level();
  Logger::set_level(LogLevel::kOff);

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  obs::RunScope run(sim);

  JobConfig c;
  c.model = train::mobilenet_v2_cifar();  // ~28 MiB GPU state: 7 chunks
  c.initial_workers = 2;
  c.initial_total_batch = 64;
  c.coordination_interval = 20;  // few rounds: the run's ring must not wrap
  c.worker_params.start_mean = 1.0;
  c.worker_params.start_stddev = 0.2;
  c.am.report_timeout = 8.0;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(1000000);

  fault::FaultInjector injector(sim, bus, job);
  fault::FaultPlan faults;
  fault::FaultEvent hang;
  hang.kind = fault::FaultKind::kSuppressReport;
  faults.events.push_back(hang);
  fault::FaultEvent mid;
  mid.kind = fault::FaultKind::kKillMidReplication;
  mid.frac = 0.5;
  faults.events.push_back(mid);
  fault::FaultEvent window;  // armed up front; closes after the run
  window.kind = fault::FaultKind::kDropLink;
  window.at = 100.0;
  window.duration = 1.0;
  faults.events.push_back(window);
  injector.arm(faults);

  sim.schedule(2.0, [&] { job.request_scale_out({2, 3}); });
  sim.schedule(30.0, [&] { job.stop(); });
  job.start();
  ASSERT_TRUE(sim.run_bounded(5'000'000)) << "run did not drain";
  Logger::set_level(level);

  ASSERT_LT(obs::FlightRecorder::instance().total_recorded(), obs::FlightRecorder::kRingCapacity);
  const std::string path = temp_path("flight_and_trace.flt");
  ASSERT_TRUE(obs::FlightRecorder::instance().dump(path));
  const auto flight = obs::read_flight_record(path).merged();

  std::map<std::string, std::vector<const obs::FlightEvent*>> recorded;  // traced kinds
  std::map<std::string, std::size_t> kinds_seen;
  for (const auto& e : flight) {
    const obs::FlightEventInfo row = obs::event_info(static_cast<obs::FlightEventKind>(e.kind));
    ASSERT_NE(row.name, nullptr);
    ++kinds_seen[row.name];
    if (row.traced) recorded[row.name].push_back(&e);
  }
  for (const char* kind : {"am.phase", "am.worker_report", "am.worker_evicted",
                           "repl.chunk_src_lost", "repl.replanned", "fault.injected",
                           "fault.armed"}) {
    EXPECT_GT(kinds_seen[kind], 0u) << "the run recorded no " << kind;
  }

  std::map<std::string, std::vector<obs::TraceEvent>> instants;
  for (auto& e : obs::Tracer::instance().snapshot()) {
    if (e.phase == 'i') instants[e.name].push_back(std::move(e));
  }
  for (const auto& [name, list] : instants) {
    EXPECT_TRUE(recorded.count(name)) << "instant " << name << " is not a traced kind's event";
  }
  for (const auto& [name, events] : recorded) {
    const auto& traced = instants[name];
    ASSERT_EQ(traced.size(), events.size()) << name;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_STREQ(traced[i].category, "event");
      EXPECT_DOUBLE_EQ(traced[i].ts_us, events[i]->ts_us) << name << " #" << i;
      EXPECT_EQ(traced[i].args, flight_event_args(*events[i])) << name << " #" << i;
    }
  }
}

// Outside any run both sinks read the real clock, and an event reads it
// once: its flight event and its trace instant carry the same time.
TEST_F(TracerTest, AnEventOutsideARunStampsBothSinksWithOneTime) {
  ASSERT_EQ(obs::RunScope::current(), nullptr);
  obs::Tracer::instance().set_enabled(true);
  obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::instance().clear();
  obs::event(obs::FlightEventKind::kAmPhase, "am/one_clock", "ready", 1, 2, 3);
  obs::FlightRecorder::set_enabled(false);

  const std::string path = temp_path("one_clock.flt");
  ASSERT_TRUE(obs::FlightRecorder::instance().dump(path));
  std::vector<obs::FlightEvent> recorded;
  for (const auto& e : obs::read_flight_record(path).merged()) {
    if (std::string_view(e.actor) == "am/one_clock") recorded.push_back(e);
  }
  std::vector<obs::TraceEvent> traced;
  for (auto& e : obs::Tracer::instance().snapshot()) {
    if (e.phase == 'i' && e.name == "am.phase") traced.push_back(std::move(e));
  }
  ASSERT_EQ(recorded.size(), 1u);
  ASSERT_EQ(traced.size(), 1u);
  EXPECT_EQ(traced.front().ts_us, recorded.front().ts_us);
}

TEST_F(TracerTest, ThreadPoolQueueWaitSpansUnderParallelFor) {
  obs::Tracer::instance().set_enabled(true);
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    pool.parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
      sum += static_cast<int>(e - b);
    });
    // A worker closes its task_run span after the chunk has signalled
    // parallel_for; joining the pool makes every span visible.
  }
  EXPECT_EQ(sum.load(), 64);
  const auto events = obs::Tracer::instance().snapshot();
  std::size_t runs = 0;
  for (const auto& e : events) {
    if (std::string_view(e.category) == "threadpool" && e.name == "task_run") ++runs;
  }
  EXPECT_EQ(runs, 64u);
}

// A task enqueued inside a sim run has a virtual enqueue time, while the
// worker that runs it reads the real clock: it gets a task_run span but no
// queue-wait span mixing the two clocks.
TEST_F(TracerTest, TaskEnqueuedInsideARunHasNoQueueWaitSpan) {
  obs::Tracer::instance().set_enabled(true);
  {
    ThreadPool pool(2);
    sim::Simulator sim;
    obs::RunScope run(sim);
    pool.submit([] {}).get();
  }
  std::size_t runs = 0;
  for (const auto& e : obs::Tracer::instance().snapshot()) {
    EXPECT_NE(e.name, "queue_wait");
    if (e.name == "task_run") ++runs;
  }
  EXPECT_EQ(runs, 1u);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIsExact) {
  auto& counter = obs::MetricsRegistry::instance().counter("test_concurrent_total");
  const auto before = counter.value();
  constexpr int kThreads = 8, kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value() - before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);   // `le` semantics: exactly on a bound lands in that bucket
  h.observe(1.5);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(6.0);   // above the last bound: +Inf bucket
  h.observe(-1.0);  // below everything: first bucket
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);  // 1.0, -1.0
  EXPECT_EQ(s.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(s.counts[2], 1u);  // 5.0
  EXPECT_EQ(s.counts[3], 1u);  // 6.0
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 14.5);
}

TEST(MetricsTest, ExpositionHasCumulativeBuckets) {
  auto& h = obs::MetricsRegistry::instance().histogram("test_expo_seconds", {0.1, 1.0},
                                                       "exposition test");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);
  const auto text = obs::MetricsRegistry::instance().text_exposition();
  EXPECT_NE(text.find("# TYPE test_expo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_count 3"), std::string::npos);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  auto& g = obs::MetricsRegistry::instance().gauge("test_gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(MetricsTest, SameNameReturnsSameMetric) {
  auto& a = obs::MetricsRegistry::instance().counter("test_same_total");
  auto& b = obs::MetricsRegistry::instance().counter("test_same_total");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, KindMismatchThrows) {
  obs::MetricsRegistry::instance().counter("test_kind_total");
  EXPECT_THROW(obs::MetricsRegistry::instance().gauge("test_kind_total"), InvalidArgument);
  auto& h = obs::MetricsRegistry::instance().histogram("test_rebound_seconds", {1.0});
  (void)h;
  EXPECT_THROW(
      obs::MetricsRegistry::instance().histogram("test_rebound_seconds", {1.0, 2.0}),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(LoggerTest, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

TEST(LoggerTest, FormatLineHasLevelTimeAndThreadPrefix) {
  const std::string line = Logger::format_line(LogLevel::kWarn, "message");
  EXPECT_EQ(line.rfind("[WARN ", 0), 0u) << line;
  EXPECT_NE(line.find(" t"), std::string::npos) << line;
  EXPECT_NE(line.find("] message"), std::string::npos) << line;
}

TEST(LoggerTest, ConcurrentLoggingDeliversEveryLine) {
  const LogLevel old_level = Logger::level();
  Logger::set_level(LogLevel::kInfo);
  // The sink runs under the logger mutex, so a plain vector is enough.
  std::vector<std::string> lines;
  Logger::set_sink([&](LogLevel, const std::string& message) { lines.push_back(message); });

  constexpr int kThreads = 8, kLines = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        log_info() << "thread " << t << " line " << i;
      }
    });
  }
  for (auto& t : threads) t.join();
  Logger::set_sink(nullptr);
  Logger::set_level(old_level);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kLines));
  for (const auto& l : lines) EXPECT_EQ(l.rfind("thread ", 0), 0u);
}

TEST(LoggerTest, LevelFilterSuppressesBelow) {
  const LogLevel old_level = Logger::level();
  Logger::set_level(LogLevel::kError);
  int delivered = 0;
  Logger::set_sink([&](LogLevel, const std::string&) { ++delivered; });
  log_warn() << "filtered";
  log_error() << "delivered";
  Logger::set_sink(nullptr);
  Logger::set_level(old_level);
  EXPECT_EQ(delivered, 1);
}

// ---------------------------------------------------------------------------
// sched::ScheduleMetrics::average_utilization edge cases (satellite)
// ---------------------------------------------------------------------------

TEST(ScheduleMetricsTest, AverageUtilizationEmptyIsZero) {
  sched::ScheduleMetrics m;
  EXPECT_DOUBLE_EQ(m.average_utilization(), 0.0);
}

TEST(ScheduleMetricsTest, AverageUtilizationSingleSample) {
  sched::ScheduleMetrics m;
  m.utilization.push_back({10.0, 0.75});
  EXPECT_DOUBLE_EQ(m.average_utilization(), 0.75);
}

TEST(ScheduleMetricsTest, AverageUtilizationIsOrderIndependent) {
  sched::ScheduleMetrics sorted, shuffled;
  sorted.utilization = {{1.0, 0.2}, {2.0, 0.4}, {3.0, 0.9}};
  shuffled.utilization = {{3.0, 0.9}, {1.0, 0.2}, {2.0, 0.4}};
  EXPECT_DOUBLE_EQ(sorted.average_utilization(), shuffled.average_utilization());
  EXPECT_DOUBLE_EQ(sorted.average_utilization(), 0.5);
}

}  // namespace
}  // namespace elan
