// A synthetic fault universe for fault dictionaries built by hand: `n`
// distinct descriptors cycling through every fault kind, so a dictionary
// made from them saves, loads and fingerprints a real universe.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault.hpp"

namespace snntest::test_support {

inline std::vector<fault::FaultDescriptor> synthetic_faults(size_t n) {
  constexpr size_t kKinds = static_cast<size_t>(fault::FaultKind::kSynapseBitFlip) + 1;
  std::vector<fault::FaultDescriptor> faults(n);
  for (size_t i = 0; i < n; ++i) {
    fault::FaultDescriptor& f = faults[i];
    f.kind = static_cast<fault::FaultKind>(i % kKinds);
    f.neuron = {i % 3, i};
    f.weight = {i % 3, 0, i};
    f.magnitude = 0.25f * static_cast<float>(i);
  }
  return faults;
}

}  // namespace snntest::test_support
