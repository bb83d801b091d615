#pragma once
// The mac-loop / sum-loop superinstruction kernels (fused.h), shared by both
// typed engines, TypedBound (vm.cc) and TypedFusedExec (fused.cc):
//
//   for (; i < hi; i += st) acc = acc + peek(i) [* coef[i]]
//
// Each engine first takes the hoisted precheck (mac_loop_clear plus its own
// check that the input holds every index the loop touches).  When it holds,
// no per-element check can fire: the raw loop (mac_loop_raw) reads memory
// directly and the counts are added in bulk (mac_loop_count).  Otherwise the
// checked kernel runs, with checks and counts per element in exactly the
// tree interpreter's order for the loop the superinstruction replaces -- the
// for-loop's 2 int ops, the debug window check, the channel count, the peek,
// the coefficient bounds check and load, the multiply, the add -- so an
// error fires at the same element with the same text and the same partial
// OpCounts.  The error helpers below are the typed engines' only copies of
// those strings.

#include <cstdint>
#include <limits>
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

inline double coef_value(double c) { return c; }
inline double coef_value(const ir::Value& c) { return c.as_double(); }

template <class Coef>
double coef_at(const std::vector<Coef>& c, std::size_t i) {
  return coef_value(c[i]);
}

// The input-independent half of the hoisted precheck, for a loop with
// i < hi: true when i >= 0, st > 0, every index the loop touches is inside
// `ncoef` coefficients (ncoef < 0: a sum-loop) and, with debug checks on,
// inside the declared peek window.  *last receives the largest index the
// loop touches (below INT_MAX, the tapes' offset type); the caller still
// checks that its input holds last + 1 items.
inline bool mac_loop_clear(std::int64_t i, std::int64_t hi, std::int64_t st,
                           std::int64_t ncoef, const MacCheck& chk,
                           std::int64_t* last) {
  if (i < 0 || st <= 0) return false;
  *last = i + ((hi - 1 - i) / st) * st;
  if (*last >= std::numeric_limits<int>::max()) return false;
  if (chk.debug && chk.pops + *last >= chk.window) return false;
  return ncoef < 0 || *last < ncoef;
}

// The raw loop behind a clear precheck: `src[k]` is the item at window
// offset k, `coef` null for a sum-loop.  On return `i` is the first index
// >= hi.
template <class Src, class Coef>
double mac_loop_raw(std::int64_t& i, std::int64_t hi, std::int64_t st,
                    double acc, const Src& src, const Coef* coef) {
  if (coef != nullptr) {
    for (; i < hi; i += st) {
      acc += src[static_cast<std::size_t>(i)] * coef_value(coef[i]);
    }
  } else {
    for (; i < hi; i += st) acc += src[static_cast<std::size_t>(i)];
  }
  return acc;
}

// The raw loop's counts in bulk: what `trips` checked iterations add.
inline void mac_loop_count(OpCounts* counts, std::int64_t trips,
                           bool has_coef) {
  counts->int_ops += 2 * trips;
  counts->channel += trips;
  if (has_coef) {
    counts->mem += trips;
    counts->flops += 2 * trips;  // mul + add per term
  } else {
    counts->flops += trips;  // add per term
  }
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
