// elan_analyze negative fixture: determinism rule family, every violation
// carrying a waiver. The driver asserts this file produces ZERO findings and
// a non-zero waived count — pinning both the waiver syntax (same-line and
// line-above) and that waivers are per-rule, not blanket.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace elan {

double waived_wall_clock() {
  // Same-line waiver form.
  const auto t0 = std::chrono::steady_clock::now();  // elan-analyze: allow(determinism) -- fixture: real-time budget check
  // Line-above waiver form.
  // elan-analyze: allow(determinism) -- fixture: diagnostics-only timestamp
  const auto t1 = std::chrono::system_clock::now();
  return std::chrono::duration<double>(t1.time_since_epoch()).count() +
         std::chrono::duration<double>(t0.time_since_epoch()).count();
}

int waived_randomness() {
  // elan-analyze: allow(determinism) -- fixture: seeding a test-only stream
  std::random_device rd;
  std::mt19937 engine(rd());  // elan-analyze: allow(determinism) -- fixture: wrapped locally
  std::srand(std::time(nullptr));  // elan-analyze: allow(determinism) -- fixture: one waiver covers both findings on this line
  return static_cast<int>(engine()) +
         std::rand();  // elan-analyze: allow(determinism) -- fixture
}

}  // namespace elan
