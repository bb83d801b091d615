#include "linear/frequency.h"

#include <memory>
#include <stdexcept>

#include "fft/fft.h"

namespace sit::linear {

namespace {

// Per-instance state: one overlap-save engine per output slot.  The engines
// are re-primed from the peek window on every firing, so no information
// crosses firings -- the filter is semantically stateless.
class FreqState final : public ir::NativeState {
 public:
  FreqState(const LinearRep& rep, std::size_t fft_size) {
    engines_.reserve(static_cast<std::size_t>(rep.push));
    const int k = rep.peek;
    for (int o = 0; o < rep.push; ++o) {
      // Taps: h[t] = A[o][k-1-t] so that overlap-save's causal convolution
      //   sum_t h[t] x[j-t]  ==  sum_i A[o][i] W[j-k+1+i].
      std::vector<double> taps(static_cast<std::size_t>(k));
      for (int t = 0; t < k; ++t) {
        taps[static_cast<std::size_t>(t)] =
            rep.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(k - 1 - t));
      }
      engines_.emplace_back(std::move(taps), fft_size);
    }
  }

  std::unique_ptr<ir::NativeState> clone() const override {
    return std::make_unique<FreqState>(*this);
  }

  std::vector<fft::OverlapSave> engines_;
};

}  // namespace

bool frequency_applicable(const LinearRep& rep) {
  return rep.pop == 1 && rep.peek >= 2 && rep.push >= 1;
}

double frequency_cost_per_firing(const LinearRep& rep, std::size_t fft_size) {
  const std::size_t block = fft_size - static_cast<std::size_t>(rep.peek) + 1;
  // Each output slot runs one overlap-save block per `block` firings; the
  // history re-prime and the constant add are per firing.
  double per_block = 0.0;
  for (int o = 0; o < rep.push; ++o) {
    per_block += 2.0 * fft::fft_cost_flops(fft_size) + 6.0 * static_cast<double>(fft_size);
  }
  const double adds_per_firing = static_cast<double>(rep.push);  // + b[o]
  return per_block / static_cast<double>(block) + adds_per_firing;
}

std::size_t best_fft_size(const LinearRep& rep) {
  if (!frequency_applicable(rep)) return 0;
  const double direct = rep.cost_flops_per_firing();
  double best_cost = direct;
  std::size_t best = 0;
  const std::size_t base = fft::next_pow2(static_cast<std::size_t>(rep.peek) + 1);
  for (std::size_t n = base; n <= base * 32; n <<= 1) {
    const double c = frequency_cost_per_firing(rep, n);
    if (c < best_cost) {
      best_cost = c;
      best = n;
    }
  }
  return best;
}

FrequencyShape frequency_shape(const LinearRep& rep, std::size_t fft_size) {
  // Overlap-save: each firing computes `block` original firings' worth of
  // output from a window of block + peek - 1 items.
  const int block = static_cast<int>(fft_size) - rep.peek + 1;
  FrequencyShape s;
  s.peek = block + rep.peek - 1;
  s.pop = block;
  s.push = block * rep.push;
  s.cost_flops = frequency_cost_per_firing(rep, fft_size) * block;
  s.cost_ops = s.cost_flops + 2.0 * static_cast<double>(s.pop + s.push);
  return s;
}

ir::NodeP make_frequency_filter(const LinearRep& rep, const std::string& name,
                                std::size_t fft_size) {
  if (!frequency_applicable(rep)) {
    throw std::invalid_argument("frequency translation requires pop == 1");
  }
  if (fft_size == 0) fft_size = best_fft_size(rep);
  if (fft_size == 0) {
    // Caller forced translation; pick a workable size anyway.
    fft_size = fft::next_pow2(static_cast<std::size_t>(rep.peek) * 4);
  }
  if (fft_size <= static_cast<std::size_t>(rep.peek)) {
    throw std::invalid_argument("fft size must exceed the filter window");
  }
  const int k = rep.peek;
  const FrequencyShape shape = frequency_shape(rep, fft_size);
  const int block = shape.pop;
  const int push = rep.push;
  const std::vector<double> b = rep.b;

  ir::NativeFilter nf;
  nf.name = name;
  nf.peek = shape.peek;
  nf.pop = shape.pop;
  nf.push = shape.push;
  nf.stateful = false;
  nf.cost_flops = shape.cost_flops;
  nf.cost_ops = shape.cost_ops;
  nf.make_state = [rep, fft_size](ir::NativeEngine) -> std::unique_ptr<ir::NativeState> {
    return std::make_unique<FreqState>(rep, fft_size);
  };
  nf.work = [k, block, push, b](ir::NativeState* state, ir::InTape& in,
                                ir::OutTape& out) {
    auto* fs = dynamic_cast<FreqState*>(state);
    if (fs == nullptr) throw std::logic_error("frequency filter state mismatch");

    // Window = [x_0 .. x_{block+k-2}]; firing j (j < block) uses x_j..x_{j+k-1}.
    std::vector<double> history(static_cast<std::size_t>(k - 1));
    for (int i = 0; i < k - 1; ++i) history[static_cast<std::size_t>(i)] = in.peek_item(i);
    std::vector<double> blk(static_cast<std::size_t>(block));
    for (int i = 0; i < block; ++i) {
      blk[static_cast<std::size_t>(i)] = in.peek_item(k - 1 + i);
    }

    std::vector<std::vector<double>> y(static_cast<std::size_t>(push));
    for (int o = 0; o < push; ++o) {
      auto& eng = fs->engines_[static_cast<std::size_t>(o)];
      if (k > 1) eng.prime_history(history);
      y[static_cast<std::size_t>(o)] = eng.process(blk);
    }
    for (int j = 0; j < block; ++j) {
      for (int o = 0; o < push; ++o) {
        out.push_item(y[static_cast<std::size_t>(o)][static_cast<std::size_t>(j)] +
                      b[static_cast<std::size_t>(o)]);
      }
    }
    for (int i = 0; i < block; ++i) in.pop_item();
  };
  return ir::make_native(std::move(nf));
}

}  // namespace sit::linear
