#include "elan/messages.h"

namespace elan {

const char* to_string(AdjustmentType type) {
  switch (type) {
    case AdjustmentType::kScaleOut: return "scale-out";
    case AdjustmentType::kScaleIn: return "scale-in";
    case AdjustmentType::kMigrate: return "migrate";
  }
  return "?";
}

const char* to_string(AmPhase phase) {
  switch (phase) {
    case AmPhase::kSteady: return "steady";
    case AmPhase::kWaitingReady: return "waiting-ready";
    case AmPhase::kReady: return "ready";
    case AmPhase::kAdjusting: return "adjusting";
  }
  return "?";
}

}  // namespace elan
