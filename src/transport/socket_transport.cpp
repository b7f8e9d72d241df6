#include "transport/socket_transport.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight.h"

namespace elan::transport {

namespace {

/// Wall seconds since a process-wide monotonic epoch. Only deltas matter, so
/// one shared epoch keeps link/timer deadlines comparable across transports.
Seconds mono_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int make_unix_socket() {
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

/// Reconnect cooldown after a failed connect: base * factor^(failures-1),
/// capped at max.
constexpr Seconds kReconnectBackoff = milliseconds(25.0);
constexpr double kReconnectBackoffFactor = 2.0;
constexpr Seconds kReconnectBackoffMax = 1.0;
/// How long shutdown() waits for draining links to flush.
constexpr Seconds kDrainTimeout = 0.5;

bool fill_sockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kIdle: return "idle";
    case LinkState::kConnecting: return "connecting";
    case LinkState::kUp: return "up";
    case LinkState::kDraining: return "draining";
    case LinkState::kReconnecting: return "reconnecting";
    case LinkState::kClosed: return "closed";
  }
  return "?";
}

SocketTransport::SocketTransport(Options options)
    : options_(std::move(options)), rng_(options_.seed) {
  require(!options_.dir.empty(), "SocketTransport: empty socket directory");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  require(epoll_fd_ >= 0, "SocketTransport: epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  require(wake_fd_ >= 0, "SocketTransport: eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
          "SocketTransport: epoll_ctl(wake) failed");
  {
    // Message ids must not collide across the processes of one job: the
    // receiver dedups on (sender, id), and every process allocates its own
    // ids. Seed from pid + monotonic time so restarts of the same endpoint
    // name start in a fresh range.
    MutexLock lock(mu_);
    const auto ns = static_cast<MessageId>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    next_id_ = (static_cast<MessageId>(::getpid()) << 48) ^ ns;
    if (next_id_ == 0) next_id_ = 1;
  }
  io_ = std::thread([this] { io_loop(); });
  io_thread_id_ = io_.get_id();
}

SocketTransport::~SocketTransport() {
  shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Seconds SocketTransport::now() const { return mono_now(); }

void SocketTransport::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::string SocketTransport::socket_path(const std::string& name) const {
  std::string file;
  file.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
        c == '.') {
      file.push_back(c);
    } else if (c == '/') {
      file.push_back('+');  // endpoint names are hierarchical ("am/job0")
    } else {
      file.push_back('_');
    }
  }
  return options_.dir + "/" + file + ".sock";
}

void SocketTransport::record_error_locked(SocketError error, const std::string& actor) {
  ++errors_[error];
  obs::event(obs::FlightEventKind::kSockError, actor.c_str(), to_string(error),
             static_cast<std::uint64_t>(error));
  log_debug() << "sock: " << to_string(error) << " (" << actor << ")";
}

void SocketTransport::set_link_state_locked(Link& link, LinkState next) {
  if (link.state == next) return;
  obs::event(obs::FlightEventKind::kLinkState, link.peer.c_str(), to_string(next),
             static_cast<std::uint64_t>(link.state), static_cast<std::uint64_t>(next));
  log_trace() << "sock: link " << link.peer << " " << to_string(link.state)
              << " -> " << to_string(next);
  link.state = next;
}

void SocketTransport::attach(const std::string& name, Handler handler) {
  require(static_cast<bool>(handler), "SocketTransport::attach: empty handler");
  MutexLock lock(mu_);
  if (stop_) {
    record_error_locked(SocketError::kSocketClosed, name);
    throw Error("SocketTransport::attach after shutdown: " + name);
  }
  handlers_[name] = std::move(handler);
  if (listeners_.count(name) > 0) return;

  const std::string path = socket_path(name);
  sockaddr_un addr;
  if (!fill_sockaddr(path, &addr)) {
    record_error_locked(SocketError::kAddressTooLong, name);
    throw InvalidArgument("endpoint name does not fit sun_path: " + path);
  }
  const int fd = make_unix_socket();
  if (fd < 0) {
    record_error_locked(SocketError::kBindFailed, name);
    throw Error("SocketTransport: socket() failed: " + std::string(std::strerror(errno)));
  }
  int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EADDRINUSE) {
    // Stale socket file from a previous (crashed) run of this endpoint.
    ::unlink(path.c_str());
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    ::close(fd);
    record_error_locked(SocketError::kBindFailed, name);
    throw Error("SocketTransport: bind(" + path + ") failed: " +
                std::string(std::strerror(errno)));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    record_error_locked(SocketError::kListenFailed, name);
    throw Error("SocketTransport: listen(" + path + ") failed: " +
                std::string(std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    record_error_locked(SocketError::kEpollFailed, name);
    throw Error("SocketTransport: epoll_ctl(listener) failed");
  }
  listeners_[name] = fd;
  listener_names_[fd] = name;
  log_debug() << "sock: " << name << " listening at " << path;
}

void SocketTransport::detach(const std::string& name) {
  MutexLock lock(mu_);
  handlers_.erase(name);
  auto it = listeners_.find(name);
  if (it != listeners_.end()) {
    const int fd = it->second;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    ::unlink(socket_path(name).c_str());
    listener_names_.erase(fd);
    listeners_.erase(it);
  }
  // Inbound connections stay open: they are shared by every local endpoint,
  // and frames addressed to the detached name simply count as to_unknown —
  // the same semantics as MessageBus::detach.
  //
  // Synchronise with an in-flight delivery: the epoll thread copies the
  // handler out and runs it unlocked, so without this wait the handler could
  // still be executing (against an object the caller is about to destroy)
  // when detach returns. CondVar::wait releases mu_, so the running handler
  // is free to call back into the transport meanwhile. On the epoll thread
  // itself no handler can be concurrently in flight.
  if (std::this_thread::get_id() != io_thread_id_) {
    while (dispatching_to_ == name) callback_done_.wait(mu_);
  }
}

bool SocketTransport::attached(const std::string& name) const {
  MutexLock lock(mu_);
  return handlers_.count(name) > 0;
}

MessageId SocketTransport::allocate_id() {
  MutexLock lock(mu_);
  return next_id_++;
}

MessageId SocketTransport::send(Message msg) {
  MutexLock lock(mu_);
  if (msg.id == 0) msg.id = next_id_++;
  const MessageId id = msg.id;
  ++stats_.sent;
  if (stop_ || draining_) {
    ++stats_.dropped;
    return id;
  }

  auto forced = forced_drops_.find(msg.from);
  const bool force_drop = forced != forced_drops_.end() && forced->second > 0;
  if (force_drop) --forced->second;
  if (force_drop || rng_.chance(options_.drop_probability)) {
    ++stats_.dropped;
    obs::event(obs::FlightEventKind::kMsgDrop, msg.from.c_str(), msg.type.c_str(), msg.id,
               force_drop ? 0 : 2);
    log_trace() << "sock: dropped " << msg.type << " " << msg.from << "->" << msg.to;
    return id;
  }

  sockaddr_un addr;
  if (!fill_sockaddr(socket_path(msg.to), &addr)) {
    record_error_locked(SocketError::kAddressTooLong, msg.to);
    ++stats_.to_unknown;
    return id;
  }

  auto& slot = links_[msg.to];
  if (!slot) {
    slot = std::make_unique<Link>();
    slot->peer = msg.to;
  }
  Link& link = *slot;
  if (link.state == LinkState::kReconnecting && now() >= link.retry_at) {
    // Cooldown over: the next frame is allowed to trigger a fresh connect.
    set_link_state_locked(link, LinkState::kIdle);
  }
  if (link.state == LinkState::kReconnecting || link.state == LinkState::kDraining ||
      link.state == LinkState::kClosed) {
    // Unreliable contract: while the link is down or going away the frame is
    // simply lost; ReliableEndpoint's re-sends ride the next connect.
    ++stats_.to_unknown;
    return id;
  }

  OutFrame frame;
  frame.head = encode_frame_head(msg);
  frame.payload = msg.payload;  // handle copy — the zero-copy send path
  link.queue.push_back(std::move(frame));
  obs::event(obs::FlightEventKind::kMsgSend, msg.from.c_str(), msg.type.c_str(), id);
  wake();
  return id;
}

TimerId SocketTransport::schedule_after(Seconds delay, std::function<void()> fn) {
  require(static_cast<bool>(fn), "SocketTransport::schedule_after: empty fn");
  MutexLock lock(mu_);
  const TimerId id = next_timer_++;
  timers_[id] = Timer{now() + std::max(0.0, delay), std::move(fn)};
  wake();
  return id;
}

void SocketTransport::cancel_timer(TimerId id) {
  // The wait below is only taken off the epoll thread; a handler cancelling
  // a timer runs ON the epoll thread and returns immediately.
  MutexLock lock(mu_);
  timers_.erase(id);
  // If the callback was already collected for execution this tick, erasing
  // the map entry cannot stop it — wait for it to finish instead, so the
  // caller may safely destroy whatever the callback captures once we return.
  // (ReliableEndpoint's destructor depends on exactly this.)
  if (std::this_thread::get_id() != io_thread_id_) {
    while (firing_timers_.count(id) > 0) callback_done_.wait(mu_);
  }
}

BusStats SocketTransport::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void SocketTransport::inject_drops(const std::string& from, int n) {
  MutexLock lock(mu_);
  forced_drops_[from] += n;
}

std::map<SocketError, std::uint64_t> SocketTransport::error_counts() const {
  MutexLock lock(mu_);
  return errors_;
}

std::uint64_t SocketTransport::error_count(SocketError error) const {
  MutexLock lock(mu_);
  auto it = errors_.find(error);
  return it == errors_.end() ? 0 : it->second;
}

LinkState SocketTransport::link_state(const std::string& peer) const {
  MutexLock lock(mu_);
  auto it = links_.find(peer);
  return it == links_.end() ? LinkState::kIdle : it->second->state;
}

void SocketTransport::update_write_interest_locked(Link& link) {
  if (link.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (link.want_write ? EPOLLOUT : 0u);
  ev.data.fd = link.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, link.fd, &ev) != 0) {
    record_error_locked(SocketError::kEpollFailed, link.peer);
  }
}

void SocketTransport::close_link_fd_locked(Link& link) {
  if (link.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, link.fd, nullptr);
  link_by_fd_.erase(link.fd);
  ::close(link.fd);
  link.fd = -1;
  link.want_write = false;
}

void SocketTransport::fail_link_locked(Link& link, SocketError error) {
  record_error_locked(error, link.peer);
  close_link_fd_locked(link);
  // Frames already queued die with the connection (unreliable contract).
  // Connect-class failures mean "nobody is bound there" — the same situation
  // the sim bus counts as to_unknown; transmission failures count as drops.
  const bool unknown_peer = error == SocketError::kPeerUnknown ||
                            error == SocketError::kConnectFailed ||
                            error == SocketError::kAddressTooLong;
  if (unknown_peer) {
    stats_.to_unknown += link.queue.size();
  } else {
    stats_.dropped += link.queue.size();
  }
  link.queue.clear();
  ++link.failures;
  Seconds backoff = kReconnectBackoff;
  for (int i = 1; i < link.failures && backoff < kReconnectBackoffMax; ++i) {
    backoff *= kReconnectBackoffFactor;
  }
  backoff = std::min(backoff, kReconnectBackoffMax);
  link.retry_at = now() + backoff;
  set_link_state_locked(link, LinkState::kReconnecting);
}

void SocketTransport::ensure_link_started_locked(Link& link) {
  if (link.state != LinkState::kIdle || link.queue.empty()) return;
  sockaddr_un addr;
  if (!fill_sockaddr(socket_path(link.peer), &addr)) {
    fail_link_locked(link, SocketError::kAddressTooLong);
    return;
  }
  const int fd = make_unix_socket();
  if (fd < 0) {
    fail_link_locked(link, SocketError::kConnectFailed);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    fail_link_locked(link, (errno == ENOENT || errno == ECONNREFUSED)
                               ? SocketError::kPeerUnknown
                               : SocketError::kConnectFailed);
    return;
  }
  link.fd = fd;
  link.want_write = true;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    link.fd = -1;
    fail_link_locked(link, SocketError::kEpollFailed);
    return;
  }
  link_by_fd_[fd] = &link;
  if (rc == 0) {
    link.failures = 0;
    set_link_state_locked(link, LinkState::kUp);
    flush_link_locked(link);
  } else {
    set_link_state_locked(link, LinkState::kConnecting);
  }
}

void SocketTransport::flush_link_locked(Link& link) {
  while (!link.queue.empty() && link.fd >= 0) {
    OutFrame& f = link.queue.front();
    const std::size_t head_size = f.head.size();
    const std::size_t total = head_size + f.payload.size();
    if (f.offset >= total) {
      link.queue.pop_front();
      continue;
    }
    iovec iov[2];
    int iovs = 0;
    if (f.offset < head_size) {
      iov[iovs].iov_base = f.head.data() + f.offset;
      iov[iovs].iov_len = head_size - f.offset;
      ++iovs;
    }
    const std::size_t pay_off = f.offset > head_size ? f.offset - head_size : 0;
    if (pay_off < f.payload.size()) {
      // Scatter-gather straight out of the sender's shared buffer: the
      // payload is never copied onto the wire path.
      iov[iovs].iov_base =
          const_cast<std::uint8_t*>(f.payload.data()) + pay_off;
      iov[iovs].iov_len = f.payload.size() - pay_off;
      ++iovs;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = iovs;
    const ssize_t n = ::sendmsg(link.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      f.offset += static_cast<std::size_t>(n);
      if (f.offset >= total) link.queue.pop_front();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!link.want_write) {
        link.want_write = true;
        update_write_interest_locked(link);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    fail_link_locked(link, (errno == EPIPE || errno == ECONNRESET)
                               ? SocketError::kConnReset
                               : SocketError::kSendFailed);
    return;
  }
  if (link.queue.empty()) {
    if (link.state == LinkState::kDraining) {
      close_link_fd_locked(link);
      set_link_state_locked(link, LinkState::kClosed);
      return;
    }
    if (link.want_write) {
      link.want_write = false;
      update_write_interest_locked(link);
    }
  }
}

void SocketTransport::accept_ready_locked(int listener_fd,
                                          std::vector<Message>* /*deliveries*/) {
  for (;;) {
    const int fd = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return;
      if (errno == EINTR) continue;
      auto it = listener_names_.find(listener_fd);
      record_error_locked(SocketError::kAcceptFailed,
                          it == listener_names_.end() ? "?" : it->second);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      record_error_locked(SocketError::kEpollFailed, "accept");
      continue;
    }
    inbound_.emplace(fd, std::make_unique<InConn>());
  }
}

void SocketTransport::close_inbound_locked(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  inbound_.erase(it);
}

void SocketTransport::read_inbound_locked(int fd, std::vector<Message>* deliveries) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  InConn& conn = *it->second;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      const SocketError e = conn.decoder.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)),
          [deliveries](Message&& msg) { deliveries->push_back(std::move(msg)); });
      if (e != SocketError::kOk) {
        // A framing violation poisons exactly this connection; the peer (or
        // fuzzer) behind it gets dropped while every other link keeps going.
        record_error_locked(e, "conn");
        close_inbound_locked(fd);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF
      const SocketError e = conn.decoder.finish();
      if (e != SocketError::kOk) record_error_locked(e, "conn");  // mid-frame cut
      close_inbound_locked(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    record_error_locked(SocketError::kConnReset, "conn");
    close_inbound_locked(fd);
    return;
  }
}

void SocketTransport::dispatch(std::vector<Message> deliveries) {
  for (Message& msg : deliveries) {
    Handler handler;
    {
      MutexLock lock(mu_);
      auto it = handlers_.find(msg.to);
      if (it == handlers_.end()) {
        ++stats_.to_unknown;
        obs::event(obs::FlightEventKind::kMsgToUnknown, msg.to.c_str(), msg.type.c_str(), msg.id);
        continue;
      }
      ++stats_.delivered;
      obs::event(obs::FlightEventKind::kMsgDeliver, msg.to.c_str(), msg.type.c_str(), msg.id);
      // Copy the handler out: it runs with no transport lock held and may
      // call straight back into send().
      handler = it->second;
      // Mark the delivery so a concurrent detach(msg.to) blocks until the
      // handler returns.
      dispatching_to_ = msg.to;
    }
    handler(msg);
    {
      MutexLock lock(mu_);
      dispatching_to_.clear();
    }
    callback_done_.notify_all();
  }
}

void SocketTransport::io_loop() {
  std::vector<epoll_event> events(64);
  for (;;) {
    int timeout_ms = 100;
    std::vector<std::pair<TimerId, std::function<void()>>> due;
    {
      MutexLock lock(mu_);
      if (stop_) break;
      // Service outbound links: idle links with traffic start connecting,
      // connected links with traffic (re-)register write interest.
      for (auto& [peer, link] : links_) {
        if (link->queue.empty()) continue;
        if (link->state == LinkState::kIdle && now() >= link->retry_at) {
          ensure_link_started_locked(*link);
        } else if ((link->state == LinkState::kUp ||
                    link->state == LinkState::kDraining) &&
                   !link->want_write) {
          link->want_write = true;
          update_write_interest_locked(*link);
        }
      }
      // Collect due timers; the earliest pending one bounds the epoll wait.
      const Seconds t = now();
      Seconds next_deadline = t + 0.1;
      for (auto it = timers_.begin(); it != timers_.end();) {
        if (it->second.deadline <= t) {
          // Membership in firing_timers_ is what a concurrent cancel_timer
          // waits on from the moment the map entry disappears until the
          // callback has finished running below.
          firing_timers_.insert(it->first);
          due.emplace_back(it->first, std::move(it->second.fn));
          it = timers_.erase(it);
        } else {
          next_deadline = std::min(next_deadline, it->second.deadline);
          ++it;
        }
      }
      timeout_ms = std::max(
          0, static_cast<int>((next_deadline - t) * 1000.0) + 1);
    }
    // Timer callbacks run with no transport lock held (ReliableEndpoint's
    // re-send timers lock the endpoint and call back into send()).
    for (auto& [id, fn] : due) {
      fn();
      {
        MutexLock lock(mu_);
        firing_timers_.erase(id);
      }
      callback_done_.notify_all();
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      MutexLock lock(mu_);
      record_error_locked(SocketError::kEpollFailed, "io");
      break;
    }
    std::vector<Message> deliveries;
    {
      MutexLock lock(mu_);
      if (stop_) break;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == wake_fd_) {
          std::uint64_t count = 0;
          while (::read(wake_fd_, &count, sizeof(count)) > 0) {
          }
          continue;
        }
        if (listener_names_.count(fd) > 0) {
          accept_ready_locked(fd, &deliveries);
          continue;
        }
        auto lit = link_by_fd_.find(fd);
        if (lit != link_by_fd_.end()) {
          Link& link = *lit->second;
          if (link.state == LinkState::kConnecting) {
            int err = 0;
            socklen_t len = sizeof(err);
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
            if (err != 0) {
              errno = err;
              fail_link_locked(link, (err == ENOENT || err == ECONNREFUSED)
                                         ? SocketError::kPeerUnknown
                                         : SocketError::kConnectFailed);
            } else {
              link.failures = 0;
              set_link_state_locked(link, LinkState::kUp);
              flush_link_locked(link);
            }
            continue;
          }
          if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
            fail_link_locked(link, SocketError::kConnReset);
            continue;
          }
          if ((ev & EPOLLIN) != 0) {
            // Outbound links are write-only at the protocol level; readable
            // means EOF (peer died / restarted) or stray bytes we discard.
            char drain[256];
            const ssize_t r = ::read(fd, drain, sizeof(drain));
            if (r == 0) {
              fail_link_locked(link, SocketError::kConnReset);
              continue;
            }
          }
          if ((ev & EPOLLOUT) != 0) flush_link_locked(link);
          continue;
        }
        if (inbound_.count(fd) > 0) {
          read_inbound_locked(fd, &deliveries);
          continue;
        }
      }
    }
    dispatch(std::move(deliveries));
  }
}

void SocketTransport::shutdown() {
  {
    MutexLock lock(mu_);
    if (stop_ && !io_.joinable()) return;
    if (!draining_) {
      draining_ = true;
      for (auto& [peer, link] : links_) {
        if (link->state == LinkState::kUp || link->state == LinkState::kConnecting) {
          set_link_state_locked(*link, LinkState::kDraining);
        } else if (link->state != LinkState::kClosed) {
          stats_.dropped += link->queue.size();
          link->queue.clear();
          close_link_fd_locked(*link);
          set_link_state_locked(*link, LinkState::kClosed);
        }
      }
    }
  }
  wake();
  // Bounded drain: give the epoll thread a chance to flush residual queues.
  const Seconds deadline = now() + kDrainTimeout;
  for (;;) {
    bool busy = false;
    {
      MutexLock lock(mu_);
      for (auto& [peer, link] : links_) busy = busy || !link->queue.empty();
    }
    if (!busy || now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    MutexLock lock(mu_);
    stop_ = true;
    for (auto& [peer, link] : links_) {
      stats_.dropped += link->queue.size();
      link->queue.clear();
      close_link_fd_locked(*link);
      set_link_state_locked(*link, LinkState::kClosed);
    }
  }
  wake();
  if (io_.joinable()) io_.join();
  MutexLock lock(mu_);
  for (auto& [fd, conn] : inbound_) ::close(fd);
  inbound_.clear();
  for (auto& [name, fd] : listeners_) {
    ::close(fd);
    ::unlink(socket_path(name).c_str());
  }
  listeners_.clear();
  listener_names_.clear();
  timers_.clear();
}

bool SocketTransport::sockets_available() {
  static const bool available = [] {
    char dir[] = "/tmp/elan_sock_probe_XXXXXX";
    if (::mkdtemp(dir) == nullptr) return false;
    const std::string path = std::string(dir) + "/p.sock";
    bool ok = false;
    const int server = make_unix_socket();
    if (server >= 0) {
      sockaddr_un addr;
      if (fill_sockaddr(path, &addr) &&
          ::bind(server, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
          ::listen(server, 1) == 0) {
        const int client = make_unix_socket();
        if (client >= 0) {
          const int rc =
              ::connect(client, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
          ok = rc == 0 || errno == EINPROGRESS;
          ::close(client);
        }
      }
      ::close(server);
    }
    ::unlink(path.c_str());
    ::rmdir(dir);
    return ok;
  }();
  return available;
}

}  // namespace elan::transport
