// elan_analyze negative fixture: serialization rule family.
//
// JoinMsg declares four data members, but its field list leaves out `gpu` —
// the silently-dropped-field protocol bug this rule exists to catch (the
// member compiles, never reaches the wire, and decodes as its default).
// Expected findings: exactly one.
#include <cstdint>
#include <string_view>
#include <tuple>

namespace elan {

struct JoinMsg {
  static constexpr std::string_view kWireType = "join";
  std::uint64_t version = 0;
  int worker = -1;
  int gpu = -1;  // BUG (the finding): missing from wire_fields()
  std::uint64_t iteration = 0;

  static auto wire_fields(auto& m) { return std::tie(m.version, m.worker, m.iteration); }
};

}  // namespace elan
