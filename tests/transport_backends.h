// Backend adapters for the transport conformance suite.
//
// Both RawTransport implementations — the in-process simulated MessageBus and
// the multi-process-capable SocketTransport — must satisfy one behavioural
// contract, so the conformance tests are written once against this seam and
// instantiated per backend (TYPED_TEST). The adapter hides the only real
// difference: how "time passes" (stepping the simulator vs. waiting on the
// wall clock).
//
// Socket cases skip gracefully (GTEST_SKIP) in sandboxes that forbid AF_UNIX
// sockets: SocketBackend::available() probes once.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "sim/simulator.h"
#include "topology/bandwidth.h"
#include "transport/bus.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace elan::transport::testing {

struct ConformanceConfig {
  /// Admission-time random loss (drives the reliable layer's re-send paths).
  double drop_probability = 0.0;
  std::uint64_t seed = 7;
};

/// One test's worth of backend world: a transport plus a way to let it run.
class BackendContext {
 public:
  virtual ~BackendContext() = default;

  virtual RawTransport& transport() = 0;

  /// Lets the backend make progress until `pred` holds or `budget` expires
  /// (wall-clock budget; the sim backend steps events, the socket backend
  /// polls). Returns the final pred() verdict.
  virtual bool wait_until(const std::function<bool()>& pred, Seconds budget = 5.0) = 0;

  /// Advances the backend's notion of time by roughly `d` seconds while
  /// processing whatever comes due (sim: run_until; socket: sleep).
  virtual void advance(Seconds d) = 0;

  /// Runs to (best-effort) quiescence.
  virtual void settle() = 0;

  /// Stops the backend: no handler or timer runs after this returns, so a
  /// test may then destroy what its callbacks capture (sim: nothing runs
  /// unless the test steps it; socket: joins the IO thread).
  virtual void shutdown() = 0;
};

// ---------------------------------------------------------------------------
// Simulated bus backend.

class SimBusContext final : public BackendContext {
 public:
  explicit SimBusContext(const ConformanceConfig& config)
      : bus_(sim_, bandwidth_,
             BusParams{config.drop_probability, /*jitter_fraction=*/0.1,
                       config.seed}) {}

  RawTransport& transport() override { return bus_; }

  bool wait_until(const std::function<bool()>& pred, Seconds budget) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(budget);
    while (!pred()) {
      if (!sim_.step()) {
        // Queue momentarily empty: concurrent senders may still be about to
        // schedule (the stress cases), so spin until the wall budget is gone.
        if (std::chrono::steady_clock::now() > deadline) return pred();
        std::this_thread::yield();
      }
    }
    return true;
  }

  void advance(Seconds d) override { sim_.run_until(sim_.now() + d); }

  void settle() override { sim_.run(); }

  void shutdown() override {}

 private:
  sim::Simulator sim_;
  topo::BandwidthModel bandwidth_;
  MessageBus bus_;
};

struct SimBusBackend {
  static constexpr const char* kName = "sim";
  /// Sender and receiver share an address space: payload handles are passed
  /// through, so delivery preserves pointer identity and allocates nothing.
  static constexpr bool kSharedMemoryDelivery = true;

  static bool available() { return true; }
  static std::unique_ptr<BackendContext> make(const ConformanceConfig& config = {}) {
    return std::make_unique<SimBusContext>(config);
  }
};

// ---------------------------------------------------------------------------
// Socket backend.

class SocketContext final : public BackendContext {
 public:
  explicit SocketContext(const ConformanceConfig& config)
      : dir_(make_dir()), transport_(make_options(dir_, config)) {}

  ~SocketContext() override {
    transport_.shutdown();
    ::rmdir(dir_.c_str());  // listeners already unlinked by shutdown
  }

  RawTransport& transport() override { return transport_; }
  SocketTransport& socket_transport() { return transport_; }
  const std::string& dir() const { return dir_; }

  bool wait_until(const std::function<bool()>& pred, Seconds budget) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(budget);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return pred();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  void advance(Seconds d) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(d));
  }

  void settle() override {
    // No global quiescence signal on a live transport; give in-flight frames
    // and timers a moment.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  void shutdown() override { transport_.shutdown(); }

 private:
  static std::string make_dir() {
    char tmpl[] = "/tmp/elan_conf_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return "/tmp";
    return tmpl;
  }

  static SocketTransport::Options make_options(const std::string& dir,
                                               const ConformanceConfig& config) {
    SocketTransport::Options options;
    options.dir = dir;
    options.drop_probability = config.drop_probability;
    options.seed = config.seed;
    return options;
  }

  std::string dir_;
  SocketTransport transport_;
};

struct SocketBackend {
  static constexpr const char* kName = "socket";
  static constexpr bool kSharedMemoryDelivery = false;

  static bool available() { return SocketTransport::sockets_available(); }
  static std::unique_ptr<BackendContext> make(const ConformanceConfig& config = {}) {
    return std::make_unique<SocketContext>(config);
  }
};

/// The backends every typed suite runs over, named "sim" and "socket" in the
/// test names (TYPED_TEST_SUITE(Suite, Backends, BackendNames)).
using Backends = ::testing::Types<SimBusBackend, SocketBackend>;

struct BackendNames {
  template <typename T>
  static std::string GetName(int) {
    return T::kName;
  }
};

}  // namespace elan::transport::testing
