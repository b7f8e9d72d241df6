// Live application master: the ApplicationMaster object from the simulation,
// hosted in its own OS process over the socket transport.
//
// The AM's timers (report timeout) go through the RawTransport timer API, so
// over SocketTransport they are real wall-clock timers, run with its message
// handler on the transport's IO thread, and the object runs unmodified. Its
// KV store keeps a simulator only because KvStore's constructor takes one:
// the AM's puts are synchronous, so nothing is ever scheduled on it.
//
// ELAN_FLIGHT / ELAN_TRACE / ELAN_METRICS / ELAN_LOG apply (obs::init_from_env);
// elan_launch points ELAN_FLIGHT at <dir>/flight-am.bin.
//
// Markers on stdout: AM_READY job=<id>. Everything else is logging (stderr).
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "elan/master.h"
#include "live_common.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "transport/kv_store.h"
#include "transport/socket_transport.h"

namespace {

/// Parses "0:0,1:1,2:2" into launch specs (worker:gpu pairs).
std::vector<elan::WorkerLaunchSpec> parse_initial(const std::string& spec) {
  std::vector<elan::WorkerLaunchSpec> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    ELAN_REQUIRE(colon != std::string::npos, "--initial: expected worker:gpu, got " + item);
    elan::WorkerLaunchSpec ws;
    ws.worker = static_cast<int>(elan::parse_int(
        item.substr(0, colon), 0, std::numeric_limits<int>::max(), "--initial: worker id"));
    ws.gpu = static_cast<elan::topo::GpuId>(elan::parse_int(
        item.substr(colon + 1), 0, elan::live::kTestbedGpus - 1, "--initial: gpu id"));
    out.push_back(ws);
    pos = comma + 1;
  }
  return out;
}

int run(int argc, char** argv, elan::Flags& flags) {
  using namespace elan;

  flags.define("dir", "", "socket directory shared by the job (required)");
  flags.define("job", "job0", "job id");
  flags.define("initial", "", "already-running workers as worker:gpu,... pairs");
  flags.define("report-timeout", "30", "seconds the AM waits for joiner reports");
  define_log_level_flag(flags);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.usage("elan_am").c_str(), stderr);
    return 0;
  }
  obs::init_from_env();
  apply_log_level_flag(flags);
  require(!flags.get("dir").empty(), "elan_am: --dir is required");

  if (!transport::SocketTransport::sockets_available()) {
    live::marker("SKIP sockets-unavailable");
    return live::kSkipExitCode;
  }

  const std::string job = flags.get("job");

  live::install_stop_handlers();

  sim::Simulator sim;
  transport::KvStore kv(sim);
  transport::SocketTransport bus(live::live_socket_options(flags.get("dir")));
  {
    AmParams params;
    params.report_timeout = flags.get_double("report-timeout");
    ApplicationMaster am(bus, kv, job, parse_initial(flags.get("initial")), params);
    live::marker("AM_READY job=" + job);
    live::wait_for_stop();
    log_info() << "am/" << job << ": stopping (phase " << to_string(am.phase()) << ")";
  }
  bus.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  elan::Flags flags;
  try {
    return run(argc, argv, flags);
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 flags.usage("elan_am").c_str());
    return 1;
  }
}
