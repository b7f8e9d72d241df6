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

}  // namespace elan
