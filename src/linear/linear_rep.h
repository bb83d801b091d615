#pragma once
// The linear representation of a filter (the paper's central object).
//
// A filter is *linear* when every output it pushes is an affine combination
// of the items in its peek window:
//
//     y_o = sum_i A[o][i] * W[i]  +  b[o]
//
// where W is the window of `peek` input items, W[0] = peek(0) (the oldest
// not-yet-popped item) and W[peek-1] the newest, and outputs y_0..y_{push-1}
// are pushed in order during one firing.  This fixes the paper's matrix up
// to layout; we store A as push x peek, row o = coefficients of output o.
//
// The window convention matters for composition: at firing t the window
// covers the filter's own input items [t*pop, t*pop + peek).

#include <string>
#include <vector>

#include "ir/filter.h"
#include "linear/matrix.h"

namespace sit::linear {

struct LinearRep {
  int peek{0}, pop{0}, push{0};
  Matrix A;                // push x peek
  std::vector<double> b;   // push

  // Direct-implementation cost of one firing: one multiply per nonzero
  // coefficient, one add per term beyond the first (plus the constant).
  [[nodiscard]] double cost_muls_per_firing() const {
    return static_cast<double>(A.nonzeros());
  }
  [[nodiscard]] double cost_flops_per_firing() const {
    double adds = 0.0;
    for (int o = 0; o < push; ++o) {
      double terms = 0.0;
      for (int i = 0; i < peek; ++i) {
        if (A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) != 0.0) {
          terms += 1.0;
        }
      }
      if (b[static_cast<std::size_t>(o)] != 0.0) terms += 1.0;
      adds += terms > 0.0 ? terms - 1.0 : 0.0;
    }
    return cost_muls_per_firing() + adds;
  }

  [[nodiscard]] std::string describe() const;
};

// Evaluate one firing on an explicit window (|window| == peek).
std::vector<double> apply(const LinearRep& rep, const std::vector<double>& window);

// Lower a linear representation back to an ordinary AST filter whose work
// function computes A*W + b directly.  The result is analyzable by every
// other pass (extraction recovers `rep` exactly), which is how collapsed
// nodes re-enter the stream graph.
//
// Row o's nonzero coefficients live in a state array `c<o>` (sized to the
// row's last nonzero + 1, zeros elsewhere), and the row is computed as
//
//     acc = b[o]  (or -0.0 when b[o] == 0);
//     for (i = lo; i < hi; i += st) acc = acc + peek(i) * c<o>[i];   // per
//     push(acc);                           // progression of the nonzeros
//
// which is the mac-loop shape the compiled engines run as one
// superinstruction.  Each loop is a maximal arithmetic progression of the
// row's nonzero columns, in column order: the summation order (and so every
// output bit) matches the left fold  b + c0*w0 + c1*w1 + ...  and a zero
// coefficient is never multiplied.  An all-zero row pushes b[o] (+0.0 when
// b[o] is zero).
ir::FilterSpec to_filter(const LinearRep& rep, const std::string& name);

// Exact structural equality (used in tests).
bool operator==(const LinearRep& a, const LinearRep& b);

}  // namespace sit::linear
