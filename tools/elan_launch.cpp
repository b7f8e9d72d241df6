// Live job launcher: spawns one elan_am and N elan_worker processes on this
// machine, then plays both the scheduler and the job runtime of Fig 2:
//
//   1. waits for the job to reach steady state (status poll),
//   2. for each --scale target, issues the Table III service call
//      (adjust_request), spawns/terminates worker processes per the reply,
//      waits for the AM to instruct the plan (phase kAdjusting), signals
//      adjust_complete, and waits for the new steady state,
//   3. with --kill-one, SIGKILLs a worker mid-round, reports it failed
//      (remove_failed), and re-admits a replacement via scale-out.
//
// Child stdout/stderr land in <dir>/<name>.log. Each child runs with
// ELAN_FLIGHT=<dir>/flight-<name>.bin (obs::init_from_env), so its flight
// record lands there at exit or on a crash: the postmortem inputs on
// failure. When the launcher's environment sets ELAN_TRACE or ELAN_METRICS,
// each child writes its own <dir>/trace-<name>.json or
// <dir>/metrics-<name>.txt instead of every child overwriting that one path.
// Other ELAN_* variables pass through unchanged.
//
// Markers on stdout (parsed by live_faults_test.py and the CI smoke job):
//   STEADY workers=N | SCALED workers=N | KILLED worker=K | REMOVED worker=K
//   READMITTED workers=N | OK | FAIL <reason> | SKIP sockets-unavailable
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "elan/messages.h"
#include "live_common.h"
#include "transport/socket_transport.h"

namespace {

using namespace elan;

bool env_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0';
}

struct Child {
  pid_t pid = -1;
  std::string name;       // "am" or "w<id>"
  int worker_id = -1;     // -1 for the AM
  bool expected_exit = false;
};

class Launcher {
 public:
  Launcher(std::string dir, std::string job, std::string am_bin,
           std::string worker_bin, Seconds step_timeout)
      : dir_(std::move(dir)),
        job_(std::move(job)),
        am_bin_(std::move(am_bin)),
        worker_bin_(std::move(worker_bin)),
        step_timeout_(step_timeout),
        bus_(live::live_socket_options(dir_)),
        client_(bus_, "launcher/" + job_),
        am_name_("am/" + job_) {}

  ~Launcher() { kill_all(); }

  bool spawn_am(int workers) {
    std::string initial;
    for (int i = 0; i < workers; ++i) {
      if (i > 0) initial += ",";
      initial += std::to_string(i) + ":" + std::to_string(i);
    }
    return spawn("am", -1,
                 {am_bin_, "--dir", dir_, "--job", job_, "--initial", initial});
  }

  bool spawn_worker(int id, int gpu, bool running) {
    std::vector<std::string> args = {worker_bin_,
                                     "--dir",
                                     dir_,
                                     "--job",
                                     job_,
                                     "--id",
                                     std::to_string(id),
                                     "--gpu",
                                     std::to_string(gpu)};
    if (running) args.push_back("--running");
    std::string name = "w";
    name += std::to_string(id);
    return spawn(name, id, args);
  }

  /// One status round trip; nullopt on timeout.
  std::optional<StatusReplyMsg> status(Seconds timeout = 2.0) {
    return client_.call<StatusReplyMsg>(am_name_, StatusRequestMsg{client_.next_request_id()},
                                        timeout);
  }

  /// Polls status until `pred` holds. Fails fast if a child dies unexpectedly.
  template <typename Pred>
  bool wait_status(const std::string& what, Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(step_timeout_);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!reap_exited()) return fail("child died while waiting for " + what);
      if (auto s = status()) {
        if (pred(*s)) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return fail("timeout waiting for " + what);
  }

  bool wait_steady(std::size_t workers, const std::string& what) {
    return wait_status(what, [&](const StatusReplyMsg& s) {
      return s.phase == AmPhase::kSteady && s.workers.size() == workers;
    });
  }

  /// Scale the job to `target` workers (out or in) through the full
  /// request -> instruct -> complete choreography.
  bool scale_to(std::size_t target) {
    auto s0 = status(step_timeout_);
    if (!s0) return fail("status before scaling");
    const std::size_t current = s0->workers.size();
    if (target == current) return true;

    AdjustRequestMsg req;
    req.request_id = client_.next_request_id();
    if (target > current) {
      req.type = AdjustmentType::kScaleOut;
      int next_gpu = 0;
      for (const auto& [id, gpu] : s0->workers) next_gpu = std::max(next_gpu, gpu + 1);
      for (std::size_t i = current; i < target; ++i) {
        req.gpus.push_back(next_gpu++);
      }
    } else {
      req.type = AdjustmentType::kScaleIn;
      // Victims: the highest worker ids.
      std::vector<int> ids;
      for (const auto& [id, gpu] : s0->workers) ids.push_back(id);
      std::sort(ids.begin(), ids.end());
      req.victims.assign(ids.end() - static_cast<long>(current - target), ids.end());
    }
    const auto reply = client_.call<AdjustReplyMsg>(am_name_, req, step_timeout_);
    if (!reply) return fail("adjust_request timed out");
    if (!reply->ok) return fail("adjust_request rejected: " + reply->error);

    // Step 1 of Fig 2: the scheduler starts the new worker processes. They
    // launch, initialise, and report to the AM asynchronously.
    for (const auto& [id, gpu] : reply->launch) {
      if (!spawn_worker(id, gpu, /*running=*/false)) return false;
    }

    // The AM instructs the plan at the next coordination once every joiner
    // reported (phase kAdjusting).
    std::uint64_t plan_version = 0;
    if (!wait_status("plan instruction", [&](const StatusReplyMsg& s) {
          if (s.phase == AmPhase::kAdjusting) {
            plan_version = s.plan_version;
            return true;
          }
          return false;
        })) {
      return false;
    }

    // Job-runtime part of the adjustment: scale-in victims actually stop.
    if (target < current) {
      for (int victim : req.victims) terminate_worker(victim);
    }

    // Replication / repartition would run here; signal completion.
    AdjustCompleteMsg done;
    done.plan_version = plan_version;
    client_.send(am_name_, done);

    if (!wait_steady(target, "steady state after scaling")) return false;
    live::marker("SCALED workers=" + std::to_string(target));
    return true;
  }

  /// Fault round: SIGKILL one worker, report it failed, re-admit a
  /// replacement.
  bool kill_one_round() {
    auto s0 = status(step_timeout_);
    if (!s0) return fail("status before kill");
    const std::size_t before = s0->workers.size();
    if (before == 0) return fail("no workers to kill");
    const int victim = s0->workers.rbegin()->first;

    Child* child = find_worker(victim);
    if (child == nullptr) return fail("no process for worker " + std::to_string(victim));
    child->expected_exit = true;
    ::kill(child->pid, SIGKILL);
    ::waitpid(child->pid, nullptr, 0);
    child->pid = -1;
    live::marker("KILLED worker=" + std::to_string(victim));

    // Worker fault tolerance: the runtime reports the dead replica and the
    // AM drops it from the membership in any phase.
    RemoveFailedMsg removed;
    removed.worker = victim;
    client_.send(am_name_, removed);
    if (!wait_status("membership shrink", [&](const StatusReplyMsg& s) {
          return s.workers.count(victim) == 0 && s.workers.size() == before - 1;
        })) {
      return false;
    }
    live::marker("REMOVED worker=" + std::to_string(victim));

    // Re-admission goes through the regular joiner path (scale-out by one).
    if (!scale_to(before)) return false;
    live::marker("READMITTED workers=" + std::to_string(before));
    return true;
  }

  bool fail(const std::string& why) {
    live::marker("FAIL " + why);
    log_error() << "launcher: " << why << " (logs and flight records in " << dir_ << ")";
    return false;
  }

  void kill_all() {
    for (auto& child : children_) {
      if (child.pid > 0) ::kill(child.pid, SIGTERM);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (auto& child : children_) {
      if (child.pid <= 0) continue;
      for (;;) {
        const pid_t r = ::waitpid(child.pid, nullptr, WNOHANG);
        if (r == child.pid || r < 0) break;
        if (std::chrono::steady_clock::now() > deadline) {
          ::kill(child.pid, SIGKILL);
          ::waitpid(child.pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      child.pid = -1;
    }
  }

 private:
  bool spawn(const std::string& name, int worker_id,
             const std::vector<std::string>& args) {
    const std::string log_path = dir_ + "/" + name + ".log";
    // argv and the environment are built before fork(): the child of this
    // multi-threaded process only redirects its output and execs.
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const std::string prefix = dir_ + "/";
    std::vector<std::string> sidecars = {"ELAN_FLIGHT=" + prefix + "flight-" + name + ".bin"};
    if (env_set("ELAN_TRACE")) {
      sidecars.push_back("ELAN_TRACE=" + prefix + "trace-" + name + ".json");
    }
    if (env_set("ELAN_METRICS")) {
      sidecars.push_back("ELAN_METRICS=" + prefix + "metrics-" + name + ".txt");
    }
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view var = *e;
      if (!var.starts_with("ELAN_FLIGHT=") && !var.starts_with("ELAN_TRACE=") &&
          !var.starts_with("ELAN_METRICS=")) {
        envp.push_back(*e);
      }
    }
    for (auto& var : sidecars) envp.push_back(var.data());
    envp.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return fail("fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execve(argv[0], argv.data(), envp.data());
      std::fprintf(stderr, "execve %s: %s\n", argv[0], std::strerror(errno));
      ::_exit(127);
    }
    children_.push_back(Child{pid, name, worker_id, false});
    log_info() << "launcher: spawned " << name << " (pid " << pid << ")";
    return true;
  }

  Child* find_worker(int worker_id) {
    for (auto& child : children_) {
      if (child.worker_id == worker_id && child.pid > 0) return &child;
    }
    return nullptr;
  }

  void terminate_worker(int worker_id) {
    Child* child = find_worker(worker_id);
    if (child == nullptr) return;
    child->expected_exit = true;
    ::kill(child->pid, SIGTERM);
    ::waitpid(child->pid, nullptr, 0);
    child->pid = -1;
    log_info() << "launcher: stopped w" << worker_id;
  }

  /// Reaps exited children; false when one died that should not have.
  bool reap_exited() {
    for (auto& child : children_) {
      if (child.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(child.pid, &status, WNOHANG);
      if (r != child.pid) continue;
      child.pid = -1;
      if (!child.expected_exit) {
        log_error() << "launcher: " << child.name << " exited unexpectedly (status "
                    << status << ")";
        return false;
      }
    }
    return true;
  }

  const std::string dir_;
  const std::string job_;
  const std::string am_bin_;
  const std::string worker_bin_;
  const Seconds step_timeout_;
  transport::SocketTransport bus_;
  live::ControlClient client_;
  const std::string am_name_;
  std::vector<Child> children_;
};

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

int run(int argc, char** argv, Flags& flags) {
  flags.define("dir", "", "socket/log directory (default: a fresh /tmp dir)");
  flags.define("job", "job0", "job id");
  flags.define("workers", "4", "initial worker count, 1..64");
  flags.define("scale", "", "comma-separated worker-count targets in 1..64, e.g. 8,4");
  flags.define("kill-one", "false", "SIGKILL a worker, evict it, re-admit a replacement");
  flags.define("am-bin", "", "path to elan_am (default: next to this binary)");
  flags.define("worker-bin", "", "path to elan_worker (default: next to this binary)");
  flags.define("step-timeout", "60", "seconds allowed per choreography step");
  flags.define("keep-dir", "false", "keep the socket/log directory on success");
  define_log_level_flag(flags);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.usage("elan_launch").c_str(), stderr);
    return 0;
  }
  apply_log_level_flag(flags);
  // Counts are checked before anything is forked.
  const int workers = static_cast<int>(
      parse_int(flags.get("workers"), 1, elan::live::kTestbedGpus, "--workers"));
  const std::vector<std::int64_t> targets =
      parse_int_list(flags.get("scale"), 1, elan::live::kTestbedGpus, "--scale");

  if (!elan::transport::SocketTransport::sockets_available()) {
    elan::live::marker("SKIP sockets-unavailable");
    return elan::live::kSkipExitCode;
  }

  std::string dir = flags.get("dir");
  if (dir.empty()) {
    char tmpl[] = "/tmp/elan_live_XXXXXX";
    elan::require(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
    dir = tmpl;
  } else {
    ::mkdir(dir.c_str(), 0755);
  }
  const std::string am_bin =
      flags.get("am-bin").empty() ? self_dir() + "/elan_am" : flags.get("am-bin");
  const std::string worker_bin = flags.get("worker-bin").empty()
                                     ? self_dir() + "/elan_worker"
                                     : flags.get("worker-bin");

  Launcher launcher(dir, flags.get("job"), am_bin, worker_bin,
                    flags.get_double("step-timeout"));

  bool ok = launcher.spawn_am(workers);
  for (int i = 0; ok && i < workers; ++i) {
    ok = launcher.spawn_worker(i, i, /*running=*/true);
  }
  ok = ok && launcher.wait_steady(static_cast<std::size_t>(workers),
                                  "initial steady state");
  if (ok) elan::live::marker("STEADY workers=" + std::to_string(workers));

  for (const std::int64_t target : targets) {
    if (!ok) break;
    ok = launcher.scale_to(static_cast<std::size_t>(target));
  }

  if (ok && flags.get_bool("kill-one")) ok = launcher.kill_one_round();

  launcher.kill_all();
  if (ok) {
    elan::live::marker("OK");
    if (!flags.get_bool("keep-dir")) {
      [[maybe_unused]] const int rc =
          std::system(("rm -rf " + dir).c_str());  // sockets + logs
    }
    return 0;
  }
  elan::live::marker("ARTIFACTS dir=" + dir);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  try {
    return run(argc, argv, flags);
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 flags.usage("elan_launch").c_str());
    return 1;
  }
}
