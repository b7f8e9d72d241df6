#include "bench.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double E2eRun::items_per_s() const {
  std::vector<double> rates;
  const std::size_t n = op_ms.size();
  for (std::size_t begin = 0; begin < n; begin += window) {
    // A trailing partial window only counts when there is no full one.
    const std::size_t end = std::min(n, begin + window);
    if (end - begin < window && !rates.empty()) break;
    double ms = 0, items = 0;
    for (std::size_t i = begin; i < end; ++i) {
      ms += op_ms[i];
      items += op_items[i];
    }
    if (ms > 0) rates.push_back(1e3 * items / ms);
  }
  return quantile(rates, 0.5);
}

void Checks::record(std::uint64_t ops, bool ok, const std::string& what) {
  attempted += ops;
  if (ok) return;
  failed += ops;
  if (failures.size() < 8) failures.push_back(what);
}

void Checks::require(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void spin_up_pool(int threads) {
  elan::ThreadPool::set_global_threads(1);  // joins the old workers
  elan::ThreadPool::set_global_threads(threads);
}

void set_tracing(bool on) {
  auto& tracer = elan::obs::Tracer::instance();
  tracer.set_enabled(on);
  tracer.clear();
}

}  // namespace perfbench
