#include "common/sync.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

// The lock-order detector (see sync.h for the model). All bookkeeping lives
// behind one internal std::mutex; the fast path — acquiring while holding no
// other lock, which covers every hot-path acquisition in the thread pool —
// touches only a thread_local array and never takes it.
//
// This file is the one place naked std:: primitives are allowed (the
// detector cannot be built on elan::Mutex without infinite recursion);
// tools/elan_analyze whitelists sync.h/sync.cpp for exactly that reason.

namespace elan {

namespace {

#if defined(ELAN_LOCK_ORDER_CHECKS)
constexpr bool kLockOrderChecks = true;
#else
constexpr bool kLockOrderChecks = false;
#endif

struct HeldLock {
  const Mutex* mu;
  std::uint32_t cls;
  const char* name;
  std::source_location loc;
};

// Capacity of a thread's held-lock stack. A thread never holds two locks of
// one class (same-class nesting aborts), and the lock-order DAG of DESIGN.md
// §5c nests at most four classes: application_master -> reliable_endpoint
// -> message_bus -> simulator. Leaf locks (logger, trace_buffer,
// metrics_registry, ...) can sit on top of that chain. Sixteen leaves room
// for all of them; a deeper stack is a nesting the DAG does not know, and
// note_acquired dies on it.
constexpr std::size_t kMaxHeldLocks = 16;

// Locks currently held by this thread, in acquisition order. Fixed capacity
// and trivially destructible: locking keeps working while static
// destructors run, and an exiting thread leaves nothing behind.
struct HeldStack {
  HeldLock locks[kMaxHeldLocks];
  std::size_t size;

  const HeldLock* begin() const { return locks; }
  const HeldLock* end() const { return locks + size; }
  bool empty() const { return size == 0; }
};
static_assert(std::is_trivially_destructible_v<HeldStack>);

constinit thread_local HeldStack t_held{};

std::uint64_t edge_key(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

// Global lock-class registry and order graph. Immortal (never destroyed):
// worker threads may still lock mutexes while static destructors run.
struct Registry {
  std::mutex m;
  std::map<std::string, std::uint32_t> class_ids;
  std::vector<std::string> class_names;  // index = class id - 1
  // Adjacency: class -> classes acquired while it was held.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adj;
  // For every first-seen edge, the formatted held stack at record time —
  // this is "the other thread's stack" printed when a later acquisition
  // closes a cycle.
  std::unordered_map<std::uint64_t, std::string> edge_stacks;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::string format_site(const std::source_location& loc) {
  return std::string(loc.file_name()) + ":" + std::to_string(loc.line());
}

std::string format_held_stack(const HeldStack& held) {
  std::string out;
  for (std::size_t i = held.size; i-- > 0;) {
    out += "    #" + std::to_string(held.size - 1 - i) + " \"" + held.locks[i].name +
           "\" acquired at " + format_site(held.locks[i].loc) + "\n";
  }
  return out;
}

std::atomic<LockOrderDieHook> g_die_hook{nullptr};

[[noreturn]] void die(const std::string& report) {
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  // Last chance to persist evidence: the flight recorder's hook dumps the
  // protocol-event rings before the abort. The detector's internal mutex
  // may be held here, so hooks must not allocate or take locks.
  if (const LockOrderDieHook hook = g_die_hook.load(std::memory_order_acquire);
      hook != nullptr) {
    hook(report.c_str());
  }
  std::abort();
}

// True if `to` is reachable from `from` in the order graph. Caller holds
// registry().m. Iterative DFS; the graph is tiny (one node per lock class).
bool reachable(Registry& reg, std::uint32_t from, std::uint32_t to,
               std::vector<std::uint32_t>* path_out) {
  std::vector<std::uint32_t> stack{from};
  std::unordered_map<std::uint32_t, std::uint32_t> parent;  // child -> parent
  parent.emplace(from, 0);
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    if (node == to) {
      if (path_out != nullptr) {
        path_out->clear();
        for (std::uint32_t n = to; n != 0; n = parent.at(n)) path_out->push_back(n);
        // path_out is to..from in reverse; flip to from..to.
        std::reverse(path_out->begin(), path_out->end());
      }
      return true;
    }
    auto it = reg.adj.find(node);
    if (it == reg.adj.end()) continue;
    for (std::uint32_t next : it->second) {
      if (parent.emplace(next, node).second) stack.push_back(next);
    }
  }
  return false;
}

// Checks ordering of a blocking acquisition and records new edges. Runs
// before m_.lock() so a genuine deadlock is still diagnosed rather than
// hanging silently.
void before_blocking_lock(const Mutex* mu, std::uint32_t cls, const char* name,
                          const std::source_location& loc) {
  const HeldStack& held = t_held;
  for (const HeldLock& h : held) {
    if (h.mu == mu) {
      die("elan::Mutex: FATAL: recursive lock of \"" + std::string(name) + "\" at " +
          format_site(loc) + " — already acquired at " + format_site(h.loc) +
          "; elan::Mutex is non-recursive\n  held locks:\n" + format_held_stack(held));
    }
  }
  if (held.empty()) return;  // fast path: no ordering to record

  Registry& reg = registry();
  std::lock_guard<std::mutex> guard(reg.m);
  for (const HeldLock& h : held) {
    const std::uint64_t key = edge_key(h.cls, cls);
    if (reg.edge_stacks.count(key) != 0) continue;  // edge already recorded
    // Adding h.cls -> cls: a path cls ->* h.cls means the reverse order was
    // taken before — the two code paths can deadlock.
    std::vector<std::uint32_t> path;
    if (h.cls == cls || reachable(reg, cls, h.cls, &path)) {
      std::string report =
          "elan::Mutex: FATAL: lock-order inversion (potential deadlock)\n"
          "  this thread is acquiring \"" + std::string(name) + "\" at " +
          format_site(loc) + " while holding:\n" + format_held_stack(held);
      if (h.cls == cls) {
        report += "  two locks of class \"" + std::string(name) +
                  "\" nested — give peer instances distinct names or impose a "
                  "single-class order\n";
      } else {
        report += "  conflicting order \"" + reg.class_names[cls - 1] + "\" -> ... -> \"" +
                  reg.class_names[h.cls - 1] + "\" was recorded earlier:\n";
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const std::uint64_t k = edge_key(path[i], path[i + 1]);
          report += "  edge \"" + reg.class_names[path[i] - 1] + "\" -> \"" +
                    reg.class_names[path[i + 1] - 1] + "\" recorded with held stack:\n" +
                    reg.edge_stacks[k];
        }
      }
      die(report);
    }
    reg.adj[h.cls].push_back(cls);
    reg.edge_stacks.emplace(
        key, format_held_stack(held) + "    then acquired \"" + name + "\" at " +
                 format_site(loc) + "\n");
  }
}

// Out of line, so note_acquired stays small enough to inline into
// Mutex::lock.
[[noreturn]] void die_held_stack_full(const char* name, const std::source_location& loc) {
  die("elan::Mutex: FATAL: acquiring \"" + std::string(name) + "\" at " + format_site(loc) +
      " while holding " + std::to_string(kMaxHeldLocks) +
      " locks, more than the lock-order DAG nests\n  held locks:\n" +
      format_held_stack(t_held));
}

void note_acquired(const Mutex* mu, std::uint32_t cls, const char* name,
                   const std::source_location& loc) {
  HeldStack& held = t_held;
  if (held.size == kMaxHeldLocks) [[unlikely]] die_held_stack_full(name, loc);
  held.locks[held.size++] = HeldLock{mu, cls, name, loc};
}

void note_released(const Mutex* mu, const char* name) {
  HeldStack& held = t_held;
  for (std::size_t i = held.size; i-- > 0;) {
    if (held.locks[i].mu == mu) {
      std::copy(held.locks + i + 1, held.locks + held.size, held.locks + i);
      --held.size;
      return;
    }
  }
  die("elan::Mutex: FATAL: unlock of \"" + std::string(name) +
      "\" which this thread does not hold\n");
}

std::uint32_t register_class(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> guard(reg.m);
  auto it = reg.class_ids.find(name);
  if (it != reg.class_ids.end()) return it->second;
  reg.class_names.emplace_back(name);
  const auto id = static_cast<std::uint32_t>(reg.class_names.size());  // ids start at 1
  reg.class_ids.emplace(name, id);
  return id;
}

}  // namespace

bool lock_order_checks_enabled() { return kLockOrderChecks; }

LockOrderDieHook set_lock_order_die_hook(LockOrderDieHook hook) noexcept {
  return g_die_hook.exchange(hook, std::memory_order_acq_rel);
}

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

Mutex::Mutex(const char* name) : name_(name) {
  if (kLockOrderChecks) class_id_ = register_class(name);
}

Mutex::~Mutex() = default;

void Mutex::lock(std::source_location loc) {
  if (kLockOrderChecks) before_blocking_lock(this, class_id_, name_, loc);
  m_.lock();
  if (kLockOrderChecks) note_acquired(this, class_id_, name_, loc);
}

void Mutex::unlock() {
  if (kLockOrderChecks) note_released(this, name_);
  m_.unlock();
}

bool Mutex::try_lock(std::source_location loc) {
  if (!m_.try_lock()) return false;
  // try_lock cannot block, so it contributes no ordering edges; it still
  // goes on the held stack so later blocking acquisitions order against it.
  if (kLockOrderChecks) note_acquired(this, class_id_, name_, loc);
  return true;
}

void CondVar::wait(Mutex& mu) {
  // The mutex stays on the held stack across the wait: the capability is
  // logically held for the whole REQUIRES region even though the underlying
  // std::mutex is released while blocked.
  std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
  cv_.wait(lk);
  lk.release();
}

}  // namespace elan
