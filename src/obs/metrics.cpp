#include "obs/metrics.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace elan::obs {

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char ch : help) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  require(std::is_sorted(bounds_.begin(), bounds_.end()),
          "histogram: bucket bounds must be ascending");
  require(std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
          "histogram: duplicate bucket bound");
  counts_.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    counts_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

void Histogram::observe(double v) {
  // First bound >= v, i.e. Prometheus `le` semantics; past-the-end is +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket]->fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // No atomic double fetch_add pre-C++20-on-all-targets: CAS loop.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v, std::memory_order_relaxed)) {
  }
}

double Histogram::Snapshot::quantile(double p) const {
  if (count == 0 || !(p >= 0.0 && p <= 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t below = cumulative;  // observations before bucket i
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (counts[i] == 0) continue;  // rank == cumulative on an empty bucket
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction =
        (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
  }
  // Rank falls in the +Inf bucket: clamp to the highest finite bound (the
  // promql convention — there is no finite upper edge to interpolate to).
  return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : bounds.back();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) s.counts.push_back(c->load(std::memory_order_relaxed));
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: handles must stay valid
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(const std::string& name,
                                                        const std::string& help, Kind kind) {
  for (auto& e : entries_) {
    if (e->name == name) {
      ELAN_REQUIRE(e->kind == kind, "metrics: " + name + " re-registered as a different kind");
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  MutexLock lock(mu_);
  auto& e = find_or_create(name, help, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  MutexLock lock(mu_);
  auto& e = find_or_create(name, help, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const std::string& help) {
  MutexLock lock(mu_);
  auto& e = find_or_create(name, help, Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    ELAN_REQUIRE(e.histogram->bounds() == bounds,
                 "metrics: histogram " + name + " re-registered with different bounds");
  }
  return *e.histogram;
}

std::string MetricsRegistry::text_exposition() const {
  std::ostringstream os;
  os.precision(12);
  MutexLock lock(mu_);
  // Every emitted label value passes through escape_label_value — today the
  // only label is `le`, whose rendered bounds are benign, but the exposition
  // spec escaping must hold wherever a value is interpolated into {...}.
  const auto le_label = [](const std::string& rendered) {
    return escape_label_value(rendered);
  };
  for (const auto& e : entries_) {
    if (!e->help.empty())
      os << "# HELP " << e->name << " " << escape_help(e->help) << "\n";
    switch (e->kind) {
      case Kind::kCounter:
        os << "# TYPE " << e->name << " counter\n";
        os << e->name << " " << e->counter->value() << "\n";
        break;
      case Kind::kGauge:
        os << "# TYPE " << e->name << " gauge\n";
        os << e->name << " " << e->gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << e->name << " histogram\n";
        const auto s = e->histogram->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cumulative += s.counts[i];
          std::ostringstream bound;
          bound.precision(12);
          bound << s.bounds[i];
          os << e->name << "_bucket{le=\"" << le_label(bound.str()) << "\"} "
             << cumulative << "\n";
        }
        cumulative += s.counts.back();
        os << e->name << "_bucket{le=\"" << le_label("+Inf") << "\"} " << cumulative << "\n";
        os << e->name << "_sum " << s.sum << "\n";
        os << e->name << "_count " << s.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

void MetricsRegistry::write_text(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) throw InternalError("metrics: cannot open " + path);
  out << text_exposition();
  if (!out.good()) throw InternalError("metrics: write failed for " + path);
}

std::vector<double> MetricsRegistry::latency_seconds_bounds() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100};
}

}  // namespace elan::obs
