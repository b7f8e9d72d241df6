#include "sched/trace_io.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"

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
    SchedJobSpec j;
    j.id = std::stoi(cells[0]);
    j.submit_time = std::stod(cells[1]);
    j.model = train::model_by_name(cells[2]);
    j.req_res = std::stoi(cells[3]);
    j.min_res = std::stoi(cells[4]);
    j.max_res = std::stoi(cells[5]);
    j.base_total_batch = std::stoi(cells[6]);
    j.total_samples = std::stoull(cells[7]);
    ELAN_REQUIRE(j.min_res > 0 && j.min_res <= j.req_res && j.req_res <= j.max_res,
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
