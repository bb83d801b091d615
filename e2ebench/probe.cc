// Host-speed probe kernel: a 128-tap FIR over the rand_source LCG, the same
// arithmetic as handwritten_fir in handwritten.h.
//
// Its speed must depend on the host only, never on the build around it:
// code placement alone changed the speed of an inlined copy of this loop by
// 30% between two builds of the benchmark.  So it lives in its own
// translation unit, which includes no repository header, is compiled with
// 64-byte function and loop alignment (CMakeLists.txt), and keeps its taps
// and window in 64-byte aligned storage rather than on the heap.

#include "probe.h"

#include <cmath>
#include <numbers>

namespace e2e {
namespace {

constexpr int kTaps = 128;  // a power of two, so the window index is a mask

struct Taps {
  alignas(64) double h[kTaps];
  Taps() {
    const double pi = std::numbers::pi;
    const double fc = 0.2;
    const double center = (kTaps - 1) / 2.0;
    for (int i = 0; i < kTaps; ++i) {
      const double x = (i - center) * 2.0 * pi * fc;
      const double s = x == 0.0 ? 2.0 * fc : 2.0 * fc * std::sin(x) / x;
      h[i] = s * (0.54 - 0.46 * std::cos(2.0 * pi * i / (kTaps - 1)));
    }
  }
};

const Taps kProbeTaps;

}  // namespace

double probe_kernel(std::int64_t items) {
  alignas(64) double win[kTaps] = {};
  std::int64_t seed = 42;
  unsigned pos = 0;
  double acc = 0.0;
  for (std::int64_t n = 0; n < items; ++n) {
    seed = (seed * 1103515245 + 12345) & ((1LL << 31) - 1);
    win[pos % kTaps] = static_cast<double>(seed) / 2147483648.0 - 0.5;
    ++pos;
    double s = 0.0;
    for (int i = 0; i < kTaps; ++i) {
      s += kProbeTaps.h[i] * win[(pos + static_cast<unsigned>(i)) % kTaps];
    }
    acc += s;
  }
  return acc;
}

}  // namespace e2e
