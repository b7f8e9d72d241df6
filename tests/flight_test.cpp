// Flight-recorder core tests: ring wrap-around, concurrent writers, the
// versioned dump/parse round trip, a run's ring under a parallel sweep, the
// crash-dump-on-ELAN_CHECK death path, and the metrics satellite (histogram
// quantiles + exposition escaping).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fault/chaos.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "temp_path.h"

namespace elan::obs {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::set_enabled(true);
    FlightRecorder::instance().clear();
  }
  void TearDown() override { FlightRecorder::set_enabled(false); }
};

const FlightRecord::Ring* find_ring(const FlightRecord& record,
                                    const char* actor) {
  for (const auto& ring : record.rings) {
    for (const auto& e : ring.events) {
      if (std::string(e.actor) == actor) return &ring;
    }
  }
  return nullptr;
}

TEST_F(FlightTest, DisabledPathRecordsNothing) {
  FlightRecorder::set_enabled(false);
  const std::uint64_t before = FlightRecorder::instance().total_recorded();
  obs::event(FlightEventKind::kMsgSend, "off", nullptr, 1);
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), before);
}

TEST_F(FlightTest, RingWrapKeepsNewestEvents) {
  const std::uint64_t n = FlightRecorder::kRingCapacity + 500;
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::event(FlightEventKind::kMsgSend, "wrap-test", "t", i);
  }
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), n);

  // Normal dumps carry a metrics snapshot; plant a marker to prove it.
  MetricsRegistry::instance()
      .counter("elan_flight_test_marker_total", "dump marker")
      .add();
  const std::string path = temp_path("flight_wrap.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(path));
  const FlightRecord record = read_flight_record(path);
  EXPECT_EQ(record.version, 2u);
  EXPECT_NE(record.metrics_text.find("elan_flight_test_marker_total"),
            std::string::npos);

  const auto* ring = find_ring(record, "wrap-test");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->total, n);
  ASSERT_EQ(ring->events.size(), FlightRecorder::kRingCapacity);
  // Newest events survive the wrap, oldest -> newest, gap-free.
  EXPECT_EQ(ring->events.front().a, 500u);
  EXPECT_EQ(ring->events.back().a, n - 1);
  for (std::size_t i = 1; i < ring->events.size(); ++i) {
    EXPECT_EQ(ring->events[i].a, ring->events[i - 1].a + 1);
    EXPECT_GT(ring->events[i].seq, ring->events[i - 1].seq);
  }
}

TEST_F(FlightTest, TruncatesActorAndDetail) {
  obs::event(FlightEventKind::kMsgSend,
             "an-actor-name-well-beyond-the-field",
             "a-detail-string-well-beyond-the-field");
  const std::string path = temp_path("flight_trunc.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(path));
  const FlightRecord record = read_flight_record(path);
  const auto merged = record.merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(std::string(merged[0].actor), "an-actor-name-we");
  EXPECT_EQ(std::string(merged[0].detail), "a-detail-string-w");
}

TEST_F(FlightTest, ConcurrentWritersFromParallelFor) {
  constexpr std::int64_t kEvents = 20000;
  ThreadPool pool(4);
  pool.parallel_for(0, kEvents, 64, [](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      obs::event(FlightEventKind::kMsgDeliver, "mt-test", nullptr,
                 static_cast<std::uint64_t>(i));
    }
  });
  EXPECT_EQ(FlightRecorder::instance().total_recorded(),
            static_cast<std::uint64_t>(kEvents));

  const std::string path = temp_path("flight_mt.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(path));
  const FlightRecord record = read_flight_record(path);

  std::uint64_t total = 0;
  for (const auto& ring : record.rings) {
    total += ring.total;
    EXPECT_EQ(ring.events.size(),
              std::min<std::uint64_t>(ring.total, FlightRecorder::kRingCapacity));
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kEvents));

  // merged() is sorted and the global sequence never collides across rings.
  const auto merged = record.merged();
  std::set<std::uint64_t> seqs;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(seqs.insert(merged[i].seq).second);
    if (i > 0) {
      EXPECT_TRUE(merged[i - 1].ts_us < merged[i].ts_us ||
                  (merged[i - 1].ts_us == merged[i].ts_us &&
                   merged[i - 1].seq < merged[i].seq));
    }
  }
}

TEST_F(FlightTest, ClearResetsRingsAndSequence) {
  obs::event(FlightEventKind::kMsgSend, "pre-clear");
  FlightRecorder::instance().clear();
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), 0u);
  obs::event(FlightEventKind::kMsgSend, "post-clear");
  const std::string path = temp_path("flight_clear.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(path));
  const auto merged = read_flight_record(path).merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(std::string(merged[0].actor), "post-clear");
  EXPECT_EQ(merged[0].seq, 0u);  // clear() restarts the causal sequence
}

// A dump outside any run holds the calling thread's most recently ended run
// (how the exit dump of a program whose simulation ran under a RunScope
// keeps that run), and only a run that ended with the recorder on is kept.
TEST_F(FlightTest, DumpOutsideRunsKeepsTheLastEndedRun) {
  sim::Simulator sim;
  for (const char* actor : {"first-run", "second-run"}) {
    RunScope run(sim);
    obs::event(FlightEventKind::kMsgSend, actor, nullptr, 1);
  }
  {
    RunScope run(sim);
    obs::event(FlightEventKind::kMsgSend, "unkept-run", nullptr, 1);
    FlightRecorder::set_enabled(false);
  }
  FlightRecorder::set_enabled(true);
  obs::event(FlightEventKind::kMsgSend, "outside", nullptr, 1);
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), 2u);
  const std::string path = temp_path("flight_ended_run.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(path));
  std::multiset<std::string> actors;
  for (const auto& e : read_flight_record(path).merged()) actors.insert(e.actor);
  EXPECT_EQ(actors, (std::multiset<std::string>{"outside", "second-run"}));

  FlightRecorder::instance().clear();
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), 0u);
}

// elan_postmortem's output for `path`, or why it failed.
std::string run_postmortem(const std::string& path) {
  const std::string command = std::string(ELAN_POSTMORTEM_BIN) + " " + path;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "popen failed";
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) out.append(buf, n);
  const int status = ::pclose(pipe);
  if (status != 0) return "elan_postmortem exited with status " + std::to_string(status);
  return out;
}

// The render minus its header line, which echoes the path and whether the
// record carries the process-wide metrics trailer.
std::string render_postmortem(const std::string& path) {
  const std::string out = run_postmortem(path);
  const std::size_t newline = out.find('\n');
  return newline == std::string::npos ? out : out.substr(newline);
}

// The render's header line.
std::string postmortem_header(const std::string& path) {
  const std::string out = run_postmortem(path);
  return out.substr(0, out.find('\n'));
}

// A run's record depends on the run alone: the scripted-failure plan run on
// a pool thread while other plans run beside it writes the ring a serial run
// on this thread writes, and elan_postmortem renders both the same. The
// metrics trailer is process-wide, so the comparison leaves it out.
TEST_F(FlightTest, RunOnAPoolThreadBesideOtherPlansMatchesTheSerialRun) {
  using fault::ChaosResult;
  using fault::ChaosRunner;
  const LogLevel level = Logger::level();
  Logger::set_level(LogLevel::kOff);
  const auto plan = ChaosRunner::scripted_failure_plan();

  ChaosRunner::set_flight_prefix(temp_path("flight_serial"));
  const ChaosResult serial = ChaosRunner::run_plan(plan);

  ChaosRunner::set_flight_prefix(temp_path("flight_pooled"));
  ChaosResult pooled;
  std::vector<ChaosResult> others;
  {
    ThreadPool pool(4);
    std::vector<std::future<ChaosResult>> beside;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      beside.push_back(pool.submit([seed] { return ChaosRunner::run_seed(seed); }));
    }
    auto scripted = pool.submit([&plan] { return ChaosRunner::run_plan(plan); });
    for (std::uint64_t seed = 5; seed <= 8; ++seed) {
      beside.push_back(pool.submit([seed] { return ChaosRunner::run_seed(seed); }));
    }
    pooled = scripted.get();
    for (auto& f : beside) others.push_back(f.get());
  }
  ChaosRunner::set_flight_prefix("");
  Logger::set_level(level);

  for (const auto& r : others) EXPECT_TRUE(r.ok()) << r.describe();
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(pooled.ok());
  ASSERT_FALSE(serial.flight_record.empty());
  ASSERT_FALSE(pooled.flight_record.empty());
  const FlightRecord a = read_flight_record(serial.flight_record);
  const FlightRecord b = read_flight_record(pooled.flight_record);
  ASSERT_EQ(a.rings.size(), 1u);
  ASSERT_EQ(b.rings.size(), 1u);
  EXPECT_EQ(a.rings[0].thread, b.rings[0].thread);
  EXPECT_EQ(a.rings[0].total, b.rings[0].total);
  ASSERT_EQ(a.rings[0].events.size(), b.rings[0].events.size());
  ASSERT_FALSE(a.rings[0].events.empty());
  EXPECT_EQ(std::memcmp(a.rings[0].events.data(), b.rings[0].events.data(),
                        a.rings[0].events.size() * sizeof(FlightEvent)),
            0)
      << "the pooled run's ring differs from the serial run's";
  const std::string render = render_postmortem(serial.flight_record);
  EXPECT_NE(render.find("round wedged"), std::string::npos) << render;
  EXPECT_EQ(render, render_postmortem(pooled.flight_record));
}

// The header says which path wrote a record, apart from whether it carries
// metrics: a process that registers no metrics still writes an exit record
// when it ends cleanly, and elan_postmortem must not call that a crash.
TEST_F(FlightTest, HeaderSaysWhichPathWroteTheRecord) {
  MetricsRegistry::instance()
      .counter("elan_flight_test_marker_total", "dump marker")
      .add();
  const std::string exit_path = temp_path("flight_exit.flt");
  ASSERT_TRUE(FlightRecorder::instance().dump(exit_path));
  const std::string crash_path = temp_path("flight_crash.flt");
  const int fd = ::open(crash_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  FlightRecorder::instance().dump_to_fd_signal_safe(fd);
  ::close(fd);
  // What dump() writes in a process that registers no metrics (a live AM or
  // worker) and recorded nothing: the header and an empty metrics section.
  const std::string bare_path = temp_path("flight_bare_exit.flt");
  {
    std::ofstream out(bare_path, std::ios::binary);
    const std::uint32_t header[3] = {sizeof(FlightEvent), /*origin=*/0, /*rings=*/0};
    const std::uint64_t metrics_len = 0;
    out.write("ELANFLT\x02", 8);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(&metrics_len), sizeof(metrics_len));
  }

  EXPECT_EQ(read_flight_record(exit_path).origin, FlightOrigin::kExit);
  const FlightRecord crash = read_flight_record(crash_path);
  EXPECT_EQ(crash.version, 2u);
  EXPECT_EQ(crash.origin, FlightOrigin::kCrash);
  EXPECT_TRUE(crash.metrics_text.empty());
  EXPECT_EQ(read_flight_record(bare_path).origin, FlightOrigin::kExit);

  const std::string exit_header = postmortem_header(exit_path);
  EXPECT_TRUE(exit_header.starts_with(exit_path + ": v2, exit record, ")) << exit_header;
  EXPECT_TRUE(exit_header.ends_with(", metrics present")) << exit_header;
  const std::string crash_header = postmortem_header(crash_path);
  EXPECT_TRUE(crash_header.starts_with(crash_path + ": v2, crash record, ")) << crash_header;
  EXPECT_TRUE(crash_header.ends_with(", metrics absent")) << crash_header;
  EXPECT_EQ(postmortem_header(bare_path),
            bare_path + ": v2, exit record, 0 ring(s), 0 event(s) (0 recorded), metrics absent");
}

TEST_F(FlightTest, RejectsMalformedFiles) {
  EXPECT_THROW(read_flight_record(::testing::TempDir() + "nonexistent.flt"),
               Error);
  const std::string path = temp_path("flight_bad.flt");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("NOTAFLIGHTRECORD", f);
    fclose(f);
  }
  EXPECT_THROW(read_flight_record(path), Error);
}

// The crash path: an ELAN_CHECK failure must write a parseable record via
// the armed async-signal-safe dump before the process dies. Excluded from
// the tsan_flight label (fork-based death tests and TSan do not mix).
TEST(FlightDeathTest, CheckFailureDumpsRecord) {
  const std::string path = ::testing::TempDir() + "flight_death.flt";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        FlightRecorder::set_enabled(true);
        FlightRecorder::instance().clear();
        FlightRecorder::instance().arm_crash_dump(path);
        obs::event(FlightEventKind::kMsgSend, "doomed", "t", 7);
        try {
          ELAN_CHECK(false, "flight death test");
        } catch (const Error&) {
          // The failure hook has already dumped by the time the throw
          // reaches us; exit the way an uncaught exception's terminate()
          // would, minus gtest's catch-all in between.
          std::_Exit(1);
        }
      },
      ::testing::ExitedWithCode(1), "wrote crash record");

  const FlightRecord record = read_flight_record(path);
  EXPECT_EQ(record.version, 2u);
  EXPECT_EQ(record.origin, FlightOrigin::kCrash);
  EXPECT_TRUE(record.metrics_text.empty());  // crash records skip metrics
  const auto merged = record.merged();
  ASSERT_GE(merged.size(), 2u);
  EXPECT_EQ(std::string(merged.front().actor), "doomed");
  const auto& death = merged.back();
  EXPECT_EQ(static_cast<FlightEventKind>(death.kind),
            FlightEventKind::kCheckFailed);
  EXPECT_EQ(std::string(death.detail), "flight_test.cpp");
  EXPECT_GT(death.a, 0u);  // the failing line number
}

// The event table is the one schema of the record, the trace and the
// postmortem: exactly the declared kinds have a row, names are unique, labels
// are unique within a kind and never collide with the instant's actor and
// detail keys, and the traced kinds are the few-per-adjustment ones.
TEST(FlightEventTable, IsExhaustiveAndUnique) {
  const std::set<int> declared = {0,  1,  2,  3,  4,  5,  6,  10, 11, 12, 13,
                                  14, 15, 20, 21, 22, 23, 30, 31, 32, 33, 34,
                                  35, 36, 40, 41, 42, 50, 51, 52, 53, 60, 61};
  std::set<int> with_row;
  std::set<std::string> names;
  std::set<std::string> traced;
  for (int v = 0; v < 256; ++v) {
    const auto kind = static_cast<FlightEventKind>(v);
    const FlightEventInfo row = event_info(kind);
    if (row.name == nullptr) {
      EXPECT_STREQ(to_string(kind), "unknown");
      continue;
    }
    with_row.insert(v);
    EXPECT_STREQ(to_string(kind), row.name);
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate name: " << row.name;
    std::set<std::string> labels = {"actor", "detail"};
    for (const char* label : row.labels) {
      if (label == nullptr) continue;
      EXPECT_NE(std::string(label), "");
      EXPECT_TRUE(labels.insert(label).second) << row.name << " repeats label " << label;
    }
    if (row.traced) traced.insert(row.name);
  }
  EXPECT_EQ(with_row, declared);
  EXPECT_EQ(traced, (std::set<std::string>{
                        "am.phase", "am.adjust_request", "am.adjust_replay",
                        "am.adjust_verdict", "am.worker_report", "am.worker_evicted",
                        "job.adjust_sent", "job.adjust_reply", "job.adjust_start",
                        "job.adjust_finish", "repl.chunk_src_lost", "repl.replanned",
                        "fault.injected", "fault.armed"}));
}

// --- Satellite: histogram quantile estimator -------------------------------

TEST(HistogramQuantileTest, EmptyAndOutOfRangeAreNaN) {
  Histogram h({1.0, 2.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  h.observe(0.5);
  EXPECT_TRUE(std::isnan(h.quantile(-0.1)));
  EXPECT_TRUE(std::isnan(h.quantile(1.5)));
  EXPECT_FALSE(std::isnan(h.quantile(0.5)));
}

TEST(HistogramQuantileTest, InterpolatesWithinBucket) {
  Histogram h({10.0});
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  // rank = 2 of 4, all in [0, 10]: halfway through the bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(HistogramQuantileTest, WalksCumulativeBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // le=1
  h.observe(1.5);  // le=2
  h.observe(3.0);  // le=4
  h.observe(10.0); // +Inf
  // rank 2 lands exactly on the le=2 bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // rank 1 is the le=1 bucket's edge; rank 0.4 interpolates inside it.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 0.4);
  // A rank in the +Inf bucket clamps to the highest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
}

TEST(HistogramQuantileTest, SkipsEmptyBuckets) {
  Histogram h({1.0, 2.0, 3.0});
  h.observe(0.5);
  h.observe(2.5);
  // rank 1 == cumulative after the first bucket; the empty le=2 bucket must
  // not produce a bogus interpolation.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

// --- Satellite: Prometheus exposition escaping -----------------------------

TEST(PrometheusEscapeTest, LabelValueEscapes) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusEscapeTest, HelpEscapesBackslashAndNewlineOnly) {
  EXPECT_EQ(escape_help("plain help"), "plain help");
  EXPECT_EQ(escape_help("a\\b\nc"), "a\\\\b\\nc");
  // Quotes are legal in HELP text and must pass through unescaped.
  EXPECT_EQ(escape_help("say \"hi\""), "say \"hi\"");
}

TEST(PrometheusEscapeTest, ExpositionEscapesHostileHelp) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("elan_flight_test_hostile_total", "line1\nline2 \\tail");
  const std::string text = registry.text_exposition();
  EXPECT_NE(
      text.find("# HELP elan_flight_test_hostile_total line1\\nline2 \\\\tail\n"),
      std::string::npos);
  // No raw newline may survive inside the HELP line.
  EXPECT_EQ(text.find("# HELP elan_flight_test_hostile_total line1\nline2"),
            std::string::npos);
}

}  // namespace
}  // namespace elan::obs
