#pragma once
// Frequency translation: executing a convolution-style linear node with FFTs
// (the paper's "automatic translation of linear nodes into the frequency
// domain, yielding algorithmic savings for convolutional filters").
//
// Applicable to linear reps with pop == 1 (a sliding-window filter; push may
// exceed 1 -- each output slot is its own FIR).  The translated node is a
// *native* filter that processes B = fftSize - peek + 1 original firings per
// invocation using overlap-save: it peeks B + peek - 1 items, pops B, and
// pushes B * push items in the original interleaved order.  Because the
// overlap history is re-primed from the peek window each firing, the filter
// stays stateless -- it can still be fissed by the parallelizers.

#include <cstddef>
#include <string>

#include "ir/graph.h"
#include "linear/linear_rep.h"

namespace sit::linear {

// Does frequency translation apply at all?
bool frequency_applicable(const LinearRep& rep);

// Cost (flops) of one *original firing's worth* of output via overlap-save
// with the given FFT size, vs. rep.cost_flops_per_firing() for direct.
double frequency_cost_per_firing(const LinearRep& rep, std::size_t fft_size);

// FFT size minimizing cost-per-output for this rep (0 if not applicable or
// never cheaper than direct).
std::size_t best_fft_size(const LinearRep& rep);

// Rates and modeled per-firing cost of the native filter
// make_frequency_filter(rep, name, fft_size) builds, without building it.
// fft_size must exceed rep.peek.
struct FrequencyShape {
  int peek{0}, pop{0}, push{0};
  double cost_flops{0.0};
  double cost_ops{0.0};
};
FrequencyShape frequency_shape(const LinearRep& rep, std::size_t fft_size);

// Build the native frequency-domain filter node.  fft_size must satisfy
// fft_size >= 2 and fft_size > peek; pass 0 to use best_fft_size().
ir::NodeP make_frequency_filter(const LinearRep& rep, const std::string& name,
                                std::size_t fft_size = 0);

}  // namespace sit::linear
