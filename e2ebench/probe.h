#pragma once
// Host-speed probe kernel (see probe.cc).

#include <cstdint>

namespace e2e {

// Run the probe over `items` source items; returns a checksum.
double probe_kernel(std::int64_t items);

}  // namespace e2e
