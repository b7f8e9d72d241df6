#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "obs/obs.h"

namespace elan::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {

double real_now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - t0).count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives thread-exit flushes
  return *tracer;
}

bool Tracer::has_custom_clock() const { return RunScope::current() != nullptr; }

double Tracer::now_us() {
  if (const RunScope* run = RunScope::current()) return run->now_us();
  return real_now_us();
}

void Tracer::set_pid(int pid, const std::string& name) {
  pid_.store(pid, std::memory_order_relaxed);
  if (!name.empty()) {
    MutexLock lock(registry_mu_);
    process_names_.emplace_back(pid, name);
  }
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    MutexLock lock(registry_mu_);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::record(TraceEvent event) {
  event.pid = pid_.load(std::memory_order_relaxed);
  if (event.tid == kCurrentThread) event.tid = this_thread_index();
  auto& buffer = buffer_for_this_thread();
  MutexLock lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

void Tracer::complete(const char* category, std::string name, double ts_us, double dur_us,
                      std::string args, std::uint64_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'X';
  e.category = category;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = tid;
  e.args = std::move(args);
  record(std::move(e));
}

void Tracer::instant(const char* category, std::string name, double ts_us, std::string args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'i';
  e.category = category;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.tid = kCurrentThread;
  e.args = std::move(args);
  record(std::move(e));
}

void Tracer::flush() {
  MutexLock lock(registry_mu_);
  for (auto& buffer : buffers_) {
    std::vector<TraceEvent> drained;
    {
      MutexLock buffer_lock(buffer->mu);
      drained.swap(buffer->events);
    }
    collected_.insert(collected_.end(), std::make_move_iterator(drained.begin()),
                      std::make_move_iterator(drained.end()));
  }
}

std::vector<TraceEvent> Tracer::snapshot() {
  flush();
  MutexLock lock(registry_mu_);
  return collected_;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Tracer::to_json() {
  const auto events = snapshot();
  std::vector<std::pair<int, std::string>> names;
  {
    MutexLock lock(registry_mu_);
    names = process_names_;
  }
  std::ostringstream os;
  os.precision(15);  // µs timestamps must survive the round trip losslessly
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const auto& [pid, name] : names) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& e : events) {
    sep();
    os << "{\"ph\":\"" << e.phase << "\",\"cat\":\"" << json_escape(e.category)
       << "\",\"name\":\"" << json_escape(e.name) << "\",\"ts\":" << e.ts_us
       << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (e.phase == 'X') os << ",\"dur\":" << e.dur_us;
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    if (!e.args.empty()) os << ",\"args\":" << e.args;
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write_json(const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw InternalError("tracer: cannot open " + path);
  out << to_json();
  if (!out.good()) throw InternalError("tracer: write failed for " + path);
}

void Tracer::clear() {
  MutexLock lock(registry_mu_);
  for (auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  collected_.clear();
  process_names_.clear();
}

}  // namespace elan::obs
