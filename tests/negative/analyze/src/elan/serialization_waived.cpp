// elan_analyze negative fixture: serialization rule family, waived.
//
// LeaveMsg: `scratch` is a genuinely transient member (recomputed on
// arrival), so its absence from the field list is waived on the declaration
// line — the one place a reader deciding whether to send it will look.
// PlanMsg: a defaulted operator== next to a complete field list gives no
// finding (the declaration is not a data member). Expected findings: none.
#include <cstdint>
#include <tuple>
#include <vector>

namespace elan {

struct LeaveMsg {
  std::uint64_t version = 0;
  int worker = -1;
  // elan-analyze: allow(serialization) -- fixture: transient, recomputed by the receiver
  std::uint64_t scratch = 0;

  static auto wire_fields(auto& m) { return std::tie(m.version, m.worker); }
};

struct PlanMsg {
  std::uint64_t version = 0;
  std::vector<int> leave;

  static auto wire_fields(auto& m) { return std::tie(m.version, m.leave); }

  bool operator==(const PlanMsg&) const = default;
};

}  // namespace elan
