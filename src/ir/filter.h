#pragma once
// Filter specifications.
//
// A filter is the StreamIt unit of computation: single input channel, single
// output channel, static peek/pop/push rates, private state, and a `work`
// function (ast.h).  Two flavours exist:
//
//  * AST filters -- behaviour given by the work AST; analyzable by every
//    compiler pass (linear extraction, work estimation, fusion...).
//  * Native filters -- behaviour given by a C++ functor with declared rates
//    and a declared per-firing cost.  These are *produced by the compiler*
//    (frequency-translated filters run an FFT; fused filters run an inner
//    schedule) and by the I/O endpoints; they execute and map like any other
//    filter but are opaque to source-level analyses.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ast.h"
#include "ir/value.h"

namespace sit::ir {

// State variable declaration.  Arrays are fixed size; `init` optionally gives
// initial contents (scalars: one element).  Most state is filled by the
// filter's init function instead.
struct VarDecl {
  std::string name;
  bool is_array{false};
  std::int64_t size{1};
  bool is_int{false};
  std::vector<Value> init;
};

// Message handler: teleport messages invoke these between work invocations.
struct Handler {
  std::vector<std::string> params;
  StmtP body;
};

struct FilterSpec {
  std::string name;
  int peek{0}, pop{0}, push{0};
  std::vector<VarDecl> state;
  StmtP init;  // runs once at graph start; may not touch channels
  StmtP work;
  std::map<std::string, Handler> handlers;

  [[nodiscard]] bool is_source() const { return pop == 0 && peek == 0; }
  [[nodiscard]] bool is_sink() const { return push == 0; }
  [[nodiscard]] bool does_peek() const { return peek > pop; }
};

// ---- native filters ---------------------------------------------------------

// Read-only view of the next items of a power-of-two ring: item k (offset k
// from the next item to pop) lives at data[(head + k) & mask].
struct TapeWindow {
  const double* data{nullptr};
  std::size_t head{0};
  std::size_t mask{0};

  [[nodiscard]] double operator[](std::size_t k) const {
    return data[(head + k) & mask];
  }
};

// Minimal channel views used by native work functions so that ir/ does not
// depend on the runtime library.  The runtime adapts its channels to these.
class InTape {
 public:
  virtual ~InTape() = default;
  virtual double peek_item(int offset) = 0;  // offset 0 = next item to pop
  virtual double pop_item() = 0;
  // Bulk discard of the next `n` items; concrete tapes override with an O(1)
  // index advance (decimation loops and splitter strides hit this hard).
  virtual void pop_many(int n) {
    for (int i = 0; i < n; ++i) pop_item();
  }
  // Expose the next `n` items as one ring view, so a bulk reader can check
  // the extent once and then read raw memory.  False when fewer than `n`
  // items are buffered or the tape keeps no ring (the caller then peeks
  // item by item, which raises the tape's own error where one is due).
  virtual bool window(int n, TapeWindow* w) {
    (void)n;
    (void)w;
    return false;
  }
};

class OutTape {
 public:
  virtual ~OutTape() = default;
  virtual void push_item(double v) = 0;
};

// Per-instance state for a native filter.  clone() supports fission: each
// replica starts from an identical copy of the initial state.
class NativeState {
 public:
  virtual ~NativeState() = default;
  virtual std::unique_ptr<NativeState> clone() const = 0;
  // How this instance runs its work, for metrics; empty when there is
  // nothing to say (a fused segment names its engine or its fallback).
  [[nodiscard]] virtual std::string status() const { return {}; }
};

// How the owning executor runs work functions, handed to make_state so that a
// native interpreting a subprogram (a fused segment) follows its owner
// rather than the environment: Tree when the executor runs AST filters on
// the tree interpreter (Engine::Tree, or typed mode off), Compiled when it
// runs them on the typed engines.
enum class NativeEngine { Tree, Compiled };

struct Node;

struct NativeFilter {
  std::string name;
  int peek{0}, pop{0}, push{0};
  std::function<std::unique_ptr<NativeState>(NativeEngine)> make_state;
  // One firing: consume exactly `pop` items (peeking at most `peek`), produce
  // exactly `push` items.
  std::function<void(NativeState*, InTape&, OutTape&)> work;
  // Static cost estimate (abstract machine operations per firing), split into
  // floating-point and total ops so MFLOPS accounting stays honest.
  double cost_ops{0};
  double cost_flops{0};
  bool stateful{false};
  // Fused segments only (parallel::fuse_subtree): the subtree the segment
  // runs, with every segment it absorbed already replaced by that segment's
  // own body, so a body never contains a segment.  Shared and never
  // mutated; null for every other native.
  std::shared_ptr<Node> body;

  [[nodiscard]] bool does_peek() const { return peek > pop; }
};

}  // namespace sit::ir
