#include "sched/trace_io.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/flags.h"

namespace elan::sched {

namespace {

constexpr const char* kHeader =
    "id,submit_time,model,req_res,min_res,max_res,base_total_batch,total_samples";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

}  // namespace

void write_trace_csv(std::ostream& os, const std::vector<SchedJobSpec>& trace) {
  os.precision(17);  // round-trip doubles exactly
  os << kHeader << "\n";
  for (const auto& j : trace) {
    os << j.id << ',' << j.submit_time << ',' << j.model.name << ',' << j.req_res << ','
       << j.min_res << ',' << j.max_res << ',' << j.base_total_batch << ','
       << j.total_samples << "\n";
  }
}

std::vector<SchedJobSpec> read_trace_csv(std::istream& is) {
  std::string line;
  require(static_cast<bool>(std::getline(is, line)), "trace csv: empty input");
  ELAN_REQUIRE(line == kHeader, "trace csv: unexpected header: " + line);
  std::vector<SchedJobSpec> trace;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    ELAN_REQUIRE(cells.size() == 8, "trace csv: bad row: " + line);
    // Every number cell is parsed whole: "12x" or "" is an error, not 12.
    auto int_cell = [&](std::size_t cell, int lo, std::string_view what) {
      return static_cast<int>(
          parse_int(cells[cell], lo, std::numeric_limits<int>::max(), what));
    };
    SchedJobSpec j;
    j.id = int_cell(0, 0, "trace csv: id");
    j.submit_time = parse_double(cells[1], 0.0, std::numeric_limits<double>::max(),
                                 "trace csv: submit_time");
    j.model = train::model_by_name(cells[2]);
    j.req_res = int_cell(3, 1, "trace csv: req_res");
    j.min_res = int_cell(4, 1, "trace csv: min_res");
    j.max_res = int_cell(5, 1, "trace csv: max_res");
    j.base_total_batch = int_cell(6, 1, "trace csv: base_total_batch");
    j.total_samples = static_cast<std::uint64_t>(parse_int(
        cells[7], 1, std::numeric_limits<std::int64_t>::max(), "trace csv: total_samples"));
    ELAN_REQUIRE(j.min_res <= j.req_res && j.req_res <= j.max_res,
                 "trace csv: inconsistent resource bounds in row: " + line);
    trace.push_back(std::move(j));
  }
  return trace;
}

void write_utilization_csv(std::ostream& os,
                           const std::vector<UtilizationSample>& samples) {
  os.precision(17);
  os << "time_seconds,utilization\n";
  for (const auto& s : samples) os << s.time << ',' << s.utilization << "\n";
}

}  // namespace elan::sched
