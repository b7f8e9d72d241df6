#include "common/error.h"

#include <atomic>

namespace elan::detail {

namespace {
std::atomic<CheckFailureHook> g_check_failure_hook{nullptr};
}  // namespace

void require_failed(const std::string& what) { throw InvalidArgument(what); }

CheckFailureHook set_check_failure_hook(CheckFailureHook hook) noexcept {
  return g_check_failure_hook.exchange(hook, std::memory_order_acq_rel);
}

void invoke_check_failure_hook(const char* expr, const char* file, int line,
                               const char* message) noexcept {
  if (const CheckFailureHook hook =
          g_check_failure_hook.load(std::memory_order_acquire);
      hook != nullptr) {
    hook(expr, file, line, message);
  }
}

}  // namespace elan::detail
