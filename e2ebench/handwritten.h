#pragma once
// Handwritten reference kernels: the ceiling the engines are measured
// against.  Plain C++ loop nests over flat arrays with the same LCG source
// (apps/common.cc rand_source, seed 42) and the same windowed-sinc taps as
// the FIR, Vocoder and FilterBank apps.  They are the kernels of
// bench/bench_fused.cc, kept here so the benchmark builds on its own; each
// returns a checksum over `items` source items (FilterBank: `blocks` blocks
// of 8 items) so the optimizer cannot drop the work.

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace e2e::hand {

struct Lcg {
  std::int64_t seed{42};
  double next() {
    seed = (seed * 1103515245 + 12345) & ((1LL << 31) - 1);
    return static_cast<double>(seed) / 2147483648.0 - 0.5;
  }
};

inline std::vector<double> lowpass_taps(int taps, double fc) {
  const double pi = std::numbers::pi;
  const double center = (taps - 1) / 2.0;
  std::vector<double> h(static_cast<std::size_t>(taps));
  for (int i = 0; i < taps; ++i) {
    const double x = (i - center) * 2.0 * pi * fc;
    const double s = x == 0.0 ? 2.0 * fc : 2.0 * fc * std::sin(x) / x;
    h[static_cast<std::size_t>(i)] =
        s * (0.54 - 0.46 * std::cos(2.0 * pi * i / (taps - 1)));
  }
  return h;
}

inline std::vector<double> bandpass_taps(int taps, double lo, double hi) {
  const double pi = std::numbers::pi;
  const double center = (taps - 1) / 2.0;
  const auto sinc_term = [&](int i, double f) {
    const double x = (i - center) * 2.0 * pi * f;
    return x == 0.0 ? 2.0 * f : 2.0 * f * std::sin(x) / x;
  };
  std::vector<double> h(static_cast<std::size_t>(taps));
  for (int i = 0; i < taps; ++i) {
    h[static_cast<std::size_t>(i)] = sinc_term(i, hi) - sinc_term(i, lo);
  }
  return h;
}

// Peek window: peek(0) is the oldest of the last N samples (N a power of
// two so the modulo folds to a mask).
template <int N>
struct Ring {
  static_assert((N & (N - 1)) == 0, "window sizes are powers of two");
  double buf[N] = {};
  unsigned pos = 0;  // next write slot; once full, also the oldest (mod N)
  void push(double x) {
    buf[pos % N] = x;
    ++pos;
  }
  double dot(const double* h) const {
    double s = 0.0;
    for (int i = 0; i < N; ++i) s += h[i] * buf[(pos + static_cast<unsigned>(i)) % N];
    return s;
  }
};

// FIR: LCG source -> 128-tap lowpass (fc 0.2) -> sink.
inline double handwritten_fir(std::int64_t items) {
  static const std::vector<double> h = lowpass_taps(128, 0.2);
  Lcg src;
  Ring<128> win;
  double acc = 0.0;
  for (std::int64_t n = 0; n < items; ++n) {
    win.push(src.next());
    acc += win.dot(h.data());
  }
  return acc;
}

// Vocoder: 8 32-tap bandpass bands over a shared window, summed, rectified,
// AGC'd, smoothed, then a 32-tap output lowpass.
inline double handwritten_vocoder(std::int64_t items) {
  static const std::vector<std::vector<double>> bands = [] {
    std::vector<std::vector<double>> hs;
    for (int b = 0; b < 8; ++b) {
      const double lo = 0.5 * b / 8;
      hs.push_back(bandpass_taps(32, lo, lo + 0.5 / 8));
    }
    return hs;
  }();
  static const std::vector<double> hout = lowpass_taps(32, 0.4);
  Lcg src;
  Ring<32> win;
  Ring<32> owin;
  double env = 0.1;
  double sm = 0.0;
  double acc = 0.0;
  for (std::int64_t n = 0; n < items; ++n) {
    win.push(src.next());
    double sum = 0.0;
    for (const auto& h : bands) sum += win.dot(h.data());
    const double r = std::fabs(sum);
    env = env * 0.95 + r * 0.05;
    const double g = r / (env + 0.01);
    sm = sm * 0.7 + g * 0.3;
    owin.push(sm);
    acc += owin.dot(hout.data());
  }
  return acc;
}

// FilterBank: per block of 8 inputs, each of 8 bands runs a 64-tap analysis
// bandpass, decimates by 8, zero-stuff upsamples by 8, and a 32-tap
// synthesis lowpass; bands are summed.  A C programmer only evaluates the
// analysis filter at the sample the decimator keeps.
inline double handwritten_filter_bank(std::int64_t blocks) {
  static const std::vector<std::vector<double>> analysis = [] {
    std::vector<std::vector<double>> hs;
    for (int b = 0; b < 8; ++b) {
      const double lo = 0.5 * b / 8;
      hs.push_back(bandpass_taps(64, lo, lo + 0.5 / 8));
    }
    return hs;
  }();
  static const std::vector<double> synthesis = lowpass_taps(32, 0.5 / 8);
  Lcg src;
  Ring<64> win;
  std::array<Ring<32>, 8> syn;
  double acc = 0.0;
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    double dec[8];
    for (int k = 0; k < 8; ++k) {
      win.push(src.next());
      if (k == 0) {
        for (int b = 0; b < 8; ++b) dec[b] = win.dot(analysis[static_cast<std::size_t>(b)].data());
      }
    }
    for (int j = 0; j < 8; ++j) {
      double out = 0.0;
      for (int b = 0; b < 8; ++b) {
        syn[static_cast<std::size_t>(b)].push(j == 0 ? dec[b] : 0.0);
        out += syn[static_cast<std::size_t>(b)].dot(synthesis.data());
      }
      acc += out;
    }
  }
  return acc;
}

}  // namespace e2e::hand
