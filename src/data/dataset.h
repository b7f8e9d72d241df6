// Dataset descriptors for the simulated workloads.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace elan::data {

struct Dataset {
  std::string name;
  std::uint64_t num_samples = 0;
  Bytes sample_bytes = 0;  // average encoded sample size (IO modelling)
};

/// Standard datasets referenced by the paper (Table I and §VI-B).
Dataset imagenet();
Dataset cifar100();
Dataset tatoeba();
Dataset wmt16();

}  // namespace elan::data
