#pragma once
// The mac-loop / sum-loop superinstruction kernel (fused.h), shared by both
// typed engines: TypedBound (vm.cc) runs every per-actor mac-loop through it,
// and TypedFusedExec (fused.cc) runs it whenever its hoisted precheck cannot
// rule out a per-element error.
//
//   for (; i < hi; i += st) acc = acc + peek(i) [* coef[i]]
//
// Checks and counts happen per element in exactly the tree interpreter's
// order for the loop the superinstruction replaces -- the for-loop's 2 int
// ops, the debug window check, the channel count, the peek, the coefficient
// bounds check and load, the multiply, the add -- so an error fires at the
// same element with the same text and the same partial OpCounts.  The error
// helpers below are the typed engines' only copies of those strings.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/value.h"
#include "runtime/opcounts.h"

namespace sit::runtime {

[[noreturn]] inline void peek_bounds_error(const std::string& name,
                                           std::int64_t off, std::int64_t pops,
                                           std::int64_t window) {
  throw std::runtime_error(
      "peek out of bounds in '" + name + "': peek(" + std::to_string(off) +
      ") after " + std::to_string(pops) +
      " pop(s) exceeds the declared window of " + std::to_string(window));
}

[[noreturn]] inline void elem_bounds_error(const char* what,
                                           const std::string& name,
                                           std::int64_t idx) {
  throw std::runtime_error(std::string(what) + ": " + name + "[" +
                           std::to_string(idx) + "]");
}

// What the per-element checks need to know about the firing.
struct MacCheck {
  bool debug{false};            // debug channel checks enabled
  std::int64_t pops{0};         // items popped so far in this firing
  std::int64_t window{0};       // the actor's declared peek window
  const std::string* actor{nullptr};
  const std::string* array{nullptr};  // coefficient array (mac-loop)
};

inline double coef_at(const std::vector<double>& c, std::size_t i) {
  return c[i];
}
inline double coef_at(const std::vector<ir::Value>& c, std::size_t i) {
  return c[i].as_double();
}

// Run the loop from `i` (st > 0) and return the accumulator.  `peek(k)`
// returns the item at window offset k or throws the channel's own error;
// `coef` is null for a sum-loop.  On return `i` is the first index >= hi.
template <bool kCount, class Peek, class Coef>
double mac_loop_checked(std::int64_t& i, std::int64_t hi, std::int64_t st,
                        double acc, const Peek& peek,
                        const std::vector<Coef>* coef, OpCounts* counts,
                        const MacCheck& chk) {
  for (; i < hi; i += st) {
    if constexpr (kCount) counts->int_ops += 2;
    if (chk.debug && (i < 0 || chk.pops + i >= chk.window)) {
      peek_bounds_error(*chk.actor, i, chk.pops, chk.window);
    }
    if constexpr (kCount) ++counts->channel;
    double term = peek(i);
    if (coef != nullptr) {
      if (i < 0 || static_cast<std::size_t>(i) >= coef->size()) {
        elem_bounds_error("array index out of bounds", *chk.array, i);
      }
      if constexpr (kCount) ++counts->mem;
      term = term * coef_at(*coef, static_cast<std::size_t>(i));
      if constexpr (kCount) ++counts->flops;
    }
    acc = acc + term;
    if constexpr (kCount) ++counts->flops;
  }
  return acc;
}

}  // namespace sit::runtime
