#include "elan/hooks.h"

#include <algorithm>

#include "common/error.h"

namespace elan {

const char* to_string(StateLocation location) {
  switch (location) {
    case StateLocation::kGpu: return "GPU";
    case StateLocation::kCpu: return "CPU";
  }
  return "?";
}

Bytes StateSnapshot::stored_bytes() const {
  Bytes total = 0;
  for (const auto& [name, blob] : blobs) total += blob.size();
  return total;
}

std::uint64_t StateSnapshot::checksum() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, blob] : blobs) {
    h = h * 31 + fnv1a({reinterpret_cast<const std::uint8_t*>(name.data()), name.size()});
    h = h * 31 + blob.checksum();
  }
  return h;
}

void HookRegistry::register_hook(StateHook hook) {
  require(!hook.name.empty(), "register_hook: empty name");
  ELAN_REQUIRE(static_cast<bool>(hook.save) && static_cast<bool>(hook.load),
               "register_hook: save/load must both be set for " + hook.name);
  ELAN_REQUIRE(!has_hook(hook.name), "register_hook: duplicate hook " + hook.name);
  hooks_.push_back(std::move(hook));
}

bool HookRegistry::has_hook(const std::string& name) const {
  return std::any_of(hooks_.begin(), hooks_.end(),
                     [&](const StateHook& h) { return h.name == name; });
}

Bytes HookRegistry::nominal_bytes(StateLocation location) const {
  Bytes total = 0;
  for (const auto& h : hooks_) {
    if (h.location == location) total += h.nominal_bytes;
  }
  return total;
}

StateSnapshot HookRegistry::save_all() const {
  StateSnapshot s;
  for (const auto& h : hooks_) {
    s.blobs.emplace(h.name, h.save());
    if (h.location == StateLocation::kGpu) {
      s.nominal_gpu_bytes += h.nominal_bytes;
    } else {
      s.nominal_cpu_bytes += h.nominal_bytes;
    }
  }
  return s;
}

void HookRegistry::load_all(const StateSnapshot& snapshot) const {
  for (const auto& h : hooks_) {
    auto it = snapshot.blobs.find(h.name);
    if (it == snapshot.blobs.end()) throw NotFound("snapshot blob: " + h.name);
    h.load(it->second);
  }
}

std::vector<std::string> HookRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(hooks_.size());
  for (const auto& h : hooks_) out.push_back(h.name);
  return out;
}

std::vector<HookRegistry::InventoryRow> HookRegistry::inventory() const {
  std::vector<InventoryRow> rows;
  rows.reserve(hooks_.size());
  for (const auto& h : hooks_) rows.push_back({h.name, h.location, h.nominal_bytes});
  return rows;
}

}  // namespace elan
