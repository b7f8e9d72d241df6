// Live worker: the WorkerProcess object from the simulation, hosted in its
// own OS process over the socket transport.
//
// The worker's timers and message handler run on the transport's IO thread,
// so it is the same single-threaded actor it is under simulation; the main
// thread only waits for a stop signal. A joiner's start and init are real
// here (fork/exec, transport attach), so it reports ready as soon as it is up
// instead of replaying the modelled launch delays. Every worker then
// coordinates with the AM every 50 ms (the job runtime's iteration-boundary
// poll).
//
// ELAN_FLIGHT / ELAN_TRACE / ELAN_METRICS / ELAN_LOG apply (obs::init_from_env);
// elan_launch points ELAN_FLIGHT at <dir>/flight-w<id>.bin.
//
// Markers on stdout: WORKER_READY id=<n>, WORKER_DECISION id=<n> v=<plan>.
#include <functional>
#include <string>

#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "elan/worker.h"
#include "live_common.h"
#include "obs/obs.h"
#include "train/models.h"
#include "transport/socket_transport.h"

namespace {

/// Wall-clock timings of a live worker.
constexpr elan::Seconds kCoordinationInterval = elan::milliseconds(50.0);
constexpr elan::Seconds kDecisionTimeout = 0.1;

int run(int argc, char** argv, elan::Flags& flags) {
  using namespace elan;

  flags.define("dir", "", "socket directory shared by the job (required)");
  flags.define("job", "job0", "job id");
  flags.define("id", "0", "worker id");
  flags.define("gpu", "0", "gpu id");
  flags.define("running", "false", "already part of the job (skip the ready report)");
  define_log_level_flag(flags);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.usage("elan_worker").c_str(), stderr);
    return 0;
  }
  obs::init_from_env();
  apply_log_level_flag(flags);
  require(!flags.get("dir").empty(), "elan_worker: --dir is required");

  if (!transport::SocketTransport::sockets_available()) {
    live::marker("SKIP sockets-unavailable");
    return live::kSkipExitCode;
  }

  const std::string job = flags.get("job");
  const int id = static_cast<int>(flags.get_int("id"));
  const bool running = flags.get_bool("running");

  live::install_stop_handlers();

  auto options = live::live_socket_options(flags.get("dir"));
  options.seed = 1000 + static_cast<std::uint64_t>(id);
  transport::SocketTransport bus(options);
  {
    WorkerParams params;
    params.decision_timeout = kDecisionTimeout;
    WorkerProcess worker(bus, job, id, static_cast<topo::GpuId>(flags.get_int("gpu")),
                         train::mobilenet_v2_cifar(), train::EngineKind::kDynamicGraph,
                         params, Rng(1234 + 7919ULL * static_cast<std::uint64_t>(id)),
                         running);

    std::uint64_t iteration = 0;
    std::function<void()> tick = [&] {
      if ((worker.state() == WorkerState::kTraining || worker.state() == WorkerState::kReady) &&
          !worker.has_pending_decision()) {
        worker.coordinate(++iteration, [&worker, id](const DecisionMsg& decision) {
          if (decision.adjust) {
            live::marker("WORKER_DECISION id=" + std::to_string(id) +
                         " v=" + std::to_string(decision.plan.version));
          }
          // A joiner's first decision doubles as its admission signal: the
          // launcher (job runtime) has run the adjustment, start training.
          if (worker.state() == WorkerState::kReady) worker.set_training();
        });
      }
      bus.schedule_after(kCoordinationInterval, tick);
    };
    // From here on the worker is touched only on the IO thread.
    bus.schedule_after(0.0, [&] {
      if (!running) worker.report_ready();
      live::marker("WORKER_READY id=" + std::to_string(id));
      tick();
    });

    live::wait_for_stop();
    bus.shutdown();  // joins the IO thread: no handler or timer runs after this
    log_info() << "w" << id << "/" << job << ": stopping in state "
               << to_string(worker.state());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  elan::Flags flags;
  try {
    return run(argc, argv, flags);
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 flags.usage("elan_worker").c_str());
    return 1;
  }
}
