// Network persistence: the SNNT format.
//
// Trained benchmark models are cached on disk (examples/benches train once
// and reuse); generated test stimuli are stored separately (see
// core/test_stimulus.hpp) — the paper's in-field use case stores the compact
// test on-chip (Sec. I). The file is `magic | version | frame(body)`
// (util/serialize.hpp, DESIGN.md "On-disk formats").
#pragma once

#include <string>
#include <string_view>

#include "snn/network.hpp"

namespace snntest::snn {

/// The SNNT file image; save_network writes it atomically.
std::string serialize_network(const Network& net);
void save_network(const Network& net, const std::string& path);

/// Throws std::runtime_error naming `source` (or the path) and the cause.
Network deserialize_network(std::string_view bytes, const std::string& source = "SNNT");
Network load_network(const std::string& path);

}  // namespace snntest::snn
