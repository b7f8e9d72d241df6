// Hook API — the framework-integration surface (paper §V-A, Table III).
//
// All training state that must survive a resource adjustment is encapsulated
// in hooks registered via RegisterHook. Integrating Elan with a new framework
// means implementing save/load functions for each piece of state; the rest of
// the system (replication planner, checkpointing baseline, consistency
// checks) works purely against this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/blob.h"
#include "common/units.h"

namespace elan {

/// Where a piece of state physically resides (paper Table II: model and
/// optimizer states live in GPU memory; data-loader and runtime states live
/// in CPU memory).
enum class StateLocation { kGpu, kCpu };

const char* to_string(StateLocation location);

struct StateHook {
  std::string name;
  StateLocation location = StateLocation::kCpu;
  /// Nominal size of this state in a real deployment (used for all transfer
  /// timing); the blob returned by `save` may be smaller (scaled simulation
  /// storage).
  Bytes nominal_bytes = 0;
  std::function<Blob()> save;
  std::function<void(const Blob&)> load;
};

/// A saved set of states, keyed by hook name.
struct StateSnapshot {
  std::map<std::string, Blob> blobs;
  Bytes nominal_gpu_bytes = 0;
  Bytes nominal_cpu_bytes = 0;

  /// Actual stored bytes (scaled), for serialisation cost in tests.
  Bytes stored_bytes() const;
  std::uint64_t checksum() const;

  static auto wire_fields(auto& s) {
    return std::tie(s.blobs, s.nominal_gpu_bytes, s.nominal_cpu_bytes);
  }
};

/// Registry of all state hooks of one worker (RegisterHook in Table III).
class HookRegistry {
 public:
  void register_hook(StateHook hook);
  bool has_hook(const std::string& name) const;
  std::size_t size() const { return hooks_.size(); }

  /// Nominal byte totals by location — drives replication-time accounting.
  Bytes nominal_bytes(StateLocation location) const;

  StateSnapshot save_all() const;
  void load_all(const StateSnapshot& snapshot) const;

  /// Names in registration order (deterministic iteration for tests).
  std::vector<std::string> names() const;

  /// Table II-style inventory row per hook: (name, location, nominal bytes).
  struct InventoryRow {
    std::string name;
    StateLocation location;
    Bytes nominal_bytes;
  };
  std::vector<InventoryRow> inventory() const;

 private:
  std::vector<StateHook> hooks_;
};

}  // namespace elan
