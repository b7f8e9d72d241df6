// Unix-domain-socket transport backend (the "real network" half of the
// RawTransport seam).
//
// Topology: every attached endpoint binds one listening socket under
// Options::dir (name sanitised into the filename), and every (local sender,
// destination endpoint) pair gets one outbound SOCK_STREAM link with an
// explicit state machine:
//
//   kIdle -> kConnecting -> kUp -> (error) -> kReconnecting -> kIdle -> …
//                            \-> kDraining -> kClosed        (shutdown)
//
// Reconnects back off geometrically (25 ms * 2^n, capped at 1 s), and
// while a link is cooling down sends to it are dropped at admission —
// the backend stays *unreliable* by contract, and ReliableEndpoint's
// ack/timeout/re-send layer above it provides delivery, exactly as over the
// sim bus (paper §V-D).
//
// All socket IO happens on one epoll thread, which also services a wall-clock
// timer heap (the RawTransport timer API) and an eventfd used to wake it when
// another thread queues a frame. Sends never block: they enqueue the frame's
// encoded head plus a shared handle to the Payload, and the epoll thread
// writev()s head and payload straight from the caller's buffer — the
// zero-copy send path.
//
// Error handling: every failure maps to a typed SocketError (socket_error.h),
// is counted per-code (error_counts()) and recorded into the flight recorder
// (kSockError). A framing error poisons only the connection it arrived on.
//
// Thread safety: fully thread-safe; handlers and timer callbacks run on the
// epoll thread with no transport lock held, so a process's handlers and
// timers form one single-threaded actor.
// cancel_timer and detach additionally synchronise with the epoll thread:
// once they return, the cancelled timer's callback / the detached endpoint's
// handler is not executing and will not execute again (callers destroy the
// objects those callbacks capture right after — ReliableEndpoint's
// destructor relies on this). The wait is skipped on the epoll thread
// itself, where no callback can be concurrently in flight.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/units.h"
#include "transport/frame.h"
#include "transport/socket_error.h"
#include "transport/transport.h"

namespace elan::transport {

enum class LinkState : std::uint8_t {
  kIdle = 0,         // no connection; first queued frame triggers connect
  kConnecting = 1,   // nonblocking connect(2) in flight
  kUp = 2,           // connected; queue flushes as the socket accepts writes
  kDraining = 3,     // shutdown requested; flushing the residual queue
  kReconnecting = 4, // connection failed; cooling down before the next try
  kClosed = 5,       // transport shut down
};

const char* to_string(LinkState state);

class SocketTransport final : public RawTransport {
 public:
  struct Options {
    /// Directory holding the per-endpoint listening sockets. All transports
    /// of one job must agree on it. Must already exist.
    std::string dir;
    /// Admission-time random loss, for driving the re-send paths in tests.
    double drop_probability = 0.0;
    std::uint64_t seed = 7;
  };

  explicit SocketTransport(Options options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // RawTransport.
  void attach(const std::string& name, Handler handler) override;
  void detach(const std::string& name) override;
  bool attached(const std::string& name) const override;
  MessageId send(Message msg) override;
  MessageId allocate_id() override;
  TimerId schedule_after(Seconds delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  TransportOptions default_options() const override {
    return TransportOptions::wallclock_defaults();
  }
  BusStats stats() const override;
  void inject_drops(const std::string& from, int n) override;

  /// Stops the epoll thread after draining outbound queues (for at most
  /// 0.5 s) and unlinks this transport's listening sockets.
  /// Idempotent; implied by the destructor.
  void shutdown();

  /// Per-code error counters (introspection for tests and postmortems).
  std::map<SocketError, std::uint64_t> error_counts() const;
  std::uint64_t error_count(SocketError error) const;

  /// Outbound link state towards `peer` (kIdle if no link exists yet).
  LinkState link_state(const std::string& peer) const;

  /// Filesystem path of the listening socket an endpoint `name` binds.
  std::string socket_path(const std::string& name) const;

  /// True when this environment permits AF_UNIX listen/connect (probed once;
  /// sandboxes that forbid sockets make the conformance suite skip).
  static bool sockets_available();

 private:
  struct OutFrame {
    std::vector<std::uint8_t> head;  // header + names (encode_frame_head)
    Payload payload;                 // shared handle; written via writev
    std::size_t offset = 0;          // bytes of head+payload already written
  };

  struct Link {
    std::string peer;
    int fd = -1;
    LinkState state = LinkState::kIdle;
    bool want_write = false;  // EPOLLOUT currently requested
    int failures = 0;         // consecutive connect failures (backoff input)
    Seconds retry_at = 0;     // wall deadline gating the next connect attempt
    std::deque<OutFrame> queue;
  };

  struct InConn {
    int fd = -1;
    FrameDecoder decoder;
  };

  struct Timer {
    Seconds deadline = 0;
    std::function<void()> fn;
  };

  const Options options_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread io_;
  std::thread::id io_thread_id_;  // set once in the constructor

  mutable Mutex mu_{"socket_transport"};
  bool stop_ ELAN_GUARDED_BY(mu_) = false;
  bool draining_ ELAN_GUARDED_BY(mu_) = false;
  Rng rng_ ELAN_GUARDED_BY(mu_);
  MessageId next_id_ ELAN_GUARDED_BY(mu_);
  std::map<std::string, Handler> handlers_ ELAN_GUARDED_BY(mu_);
  std::map<std::string, int> listeners_ ELAN_GUARDED_BY(mu_);      // name -> fd
  std::map<int, std::string> listener_names_ ELAN_GUARDED_BY(mu_); // fd -> name
  std::map<std::string, std::unique_ptr<Link>> links_ ELAN_GUARDED_BY(mu_);
  std::map<int, Link*> link_by_fd_ ELAN_GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<InConn>> inbound_ ELAN_GUARDED_BY(mu_);
  std::map<std::string, int> forced_drops_ ELAN_GUARDED_BY(mu_);
  BusStats stats_ ELAN_GUARDED_BY(mu_);
  std::map<SocketError, std::uint64_t> errors_ ELAN_GUARDED_BY(mu_);
  TimerId next_timer_ ELAN_GUARDED_BY(mu_) = 1;
  std::map<TimerId, Timer> timers_ ELAN_GUARDED_BY(mu_);
  /// Timers collected for execution this epoll tick whose callbacks have not
  /// finished yet; cancel_timer waits for membership here to clear.
  std::set<TimerId> firing_timers_ ELAN_GUARDED_BY(mu_);
  /// Endpoint whose handler is currently running inline on the epoll thread
  /// (empty otherwise); detach waits for it to change.
  std::string dispatching_to_ ELAN_GUARDED_BY(mu_);
  CondVar callback_done_;

  // --- epoll-thread internals (all called with mu_ held unless noted) -----
  void io_loop();  // thread body; acquires mu_ itself
  Seconds now() const;  // wall seconds since transport construction
  void record_error_locked(SocketError error, const std::string& actor)
      ELAN_REQUIRES(mu_);
  void set_link_state_locked(Link& link, LinkState next) ELAN_REQUIRES(mu_);
  void ensure_link_started_locked(Link& link) ELAN_REQUIRES(mu_);
  void flush_link_locked(Link& link) ELAN_REQUIRES(mu_);
  void fail_link_locked(Link& link, SocketError error) ELAN_REQUIRES(mu_);
  void update_write_interest_locked(Link& link) ELAN_REQUIRES(mu_);
  void close_link_fd_locked(Link& link) ELAN_REQUIRES(mu_);
  void accept_ready_locked(int listener_fd,
                           std::vector<Message>* deliveries) ELAN_REQUIRES(mu_);
  void read_inbound_locked(int fd, std::vector<Message>* deliveries)
      ELAN_REQUIRES(mu_);
  void close_inbound_locked(int fd) ELAN_REQUIRES(mu_);
  void wake();

  void dispatch(std::vector<Message> deliveries);
};

}  // namespace elan::transport
