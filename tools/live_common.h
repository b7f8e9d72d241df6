// Shared plumbing for the live multi-process binaries (elan_am, elan_worker,
// elan_launch).
//
// These tools run the *same* ApplicationMaster / WorkerProcess objects the
// simulation uses, but over the socket transport, whose IO thread runs each
// process's message handlers and timers in wall-clock time. What lives here
// is only the glue a real deployment would need anyway: signal-driven
// shutdown, a request/reply client for the AM's control protocol, and the
// stdout markers the launcher and tests key on.
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "common/sync.h"
#include "common/units.h"
#include "elan/messages.h"
#include "topology/topology.h"
#include "transport/bus.h"
#include "transport/socket_transport.h"

namespace elan::live {

/// Machine-readable progress marker on stdout (the launcher and the fault
/// test parse these lines; everything else goes to the log on stderr).
inline void marker(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

/// ctest's skip exit code: sockets unavailable in this sandbox.
inline constexpr int kSkipExitCode = 77;

/// A live job runs on the paper's testbed (topo::TopologySpec{}): GPU ids
/// lie in [0, kTestbedGpus) and worker counts in [1, kTestbedGpus].
inline constexpr int kTestbedGpus = topo::TopologySpec{}.total_gpus();

// ---------------------------------------------------------------------------
// Signal-driven shutdown: SIGTERM / SIGINT flip a flag the main loop polls.

inline volatile std::sig_atomic_t g_stop_requested = 0;

inline void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = [](int) { g_stop_requested = 1; };
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Sleeps until a stop signal arrives (the AM/worker main loops).
inline void wait_for_stop() {
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ---------------------------------------------------------------------------
// Request/reply client over a ReliableEndpoint.
//
// The AM answers a StatusRequestMsg with a StatusReplyMsg and an
// AdjustRequestMsg with an AdjustReplyMsg, each echoing the request's
// request_id; the client keeps the decoded replies by that id.

class ControlClient {
 public:
  using Reply = std::variant<StatusReplyMsg, AdjustReplyMsg>;

  ControlClient(transport::RawTransport& bus, std::string name)
      : endpoint_(bus, std::move(name),
                  [this](const transport::Message& msg) { on_message(msg); }) {}

  const std::string& name() const { return endpoint_.name(); }

  /// Sends `request` to `to` and waits for the `R` answering its
  /// request_id. Returns nullopt on timeout.
  template <typename R, typename Request>
  std::optional<R> call(const std::string& to, const Request& request, Seconds timeout) {
    send_message(endpoint_, to, request);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        MutexLock lock(mu_);
        auto it = replies_.find(request.request_id);
        if (it != replies_.end() && std::holds_alternative<R>(it->second)) {
          R reply = std::get<R>(std::move(it->second));
          replies_.erase(it);
          return reply;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return std::nullopt;
  }

  /// Fire-and-forget (still reliable at the transport layer): completion and
  /// failure notifications that carry no reply.
  template <typename M>
  void send(const std::string& to, const M& msg) { send_message(endpoint_, to, msg); }

  std::uint64_t next_request_id() { return next_request_id_++; }

 private:
  void on_message(const transport::Message& msg) {
    auto keep = [this](auto reply) {
      MutexLock lock(mu_);
      replies_.insert_or_assign(reply.request_id, std::move(reply));
    };
    dispatch_message(msg, name(), [&](const StatusReplyMsg& m) { keep(m); },
                     [&](const AdjustReplyMsg& m) { keep(m); });
  }

  Mutex mu_{"control_client"};
  std::map<std::uint64_t, Reply> replies_ ELAN_GUARDED_BY(mu_);
  std::uint64_t next_request_id_ = 1;
  transport::ReliableEndpoint endpoint_;  // last: handler touches the map
};

/// Transport options every live process shares; only the socket directory
/// varies per job.
inline transport::SocketTransport::Options live_socket_options(const std::string& dir) {
  transport::SocketTransport::Options options;
  options.dir = dir;
  return options;
}

}  // namespace elan::live
