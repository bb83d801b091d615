#pragma once
// Work-function interpreter.
//
// Executes the C-like AST of a filter against its input/output tapes with
// Java-like evaluation rules (the subset StreamIt 1.0 admits): int/int
// arithmetic stays integral, any float operand promotes, assignments to
// undeclared names create invocation-local temporaries, state variables
// persist across invocations.  The interpreter optionally tallies abstract
// operations (OpCounts) -- the same numbers serve execution, the static work
// estimator, and the machine simulator.

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/ast.h"
#include "ir/filter.h"
#include "ir/value.h"
#include "runtime/opcounts.h"

namespace sit::runtime {

struct FilterState {
  std::unordered_map<std::string, ir::Value> scalars;
  std::unordered_map<std::string, std::vector<ir::Value>> arrays;
};

// Teleport message emitted by a Send statement during work execution.
struct SentMessage {
  std::string portal;
  std::string method;
  std::vector<ir::Value> args;
  int lat_min{0};
  int lat_max{0};
};

using MessageSink = std::function<void(const SentMessage&)>;

// Debug-mode channel checking.  When enabled, every peek during work
// execution asserts 0 <= pops_so_far + offset < max(peek, pop) against the
// filter's declared rates and throws std::runtime_error on violation --
// the dynamic counterpart of the static bounds pass (analysis/intervals).
// Off by default: the check costs a branch per channel op.
void set_debug_channel_checks(bool enabled);
bool debug_channel_checks();

class Interp {
 public:
  // Declare state variables and run the filter's init function.  Every
  // engine builds filter state here: init runs once, on the tree.
  static FilterState init_state(const ir::FilterSpec& spec);

  // One invocation of work.  `counts` may be null.
  static void run_work(const ir::FilterSpec& spec, FilterState& state,
                       ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                       const MessageSink* sink = nullptr);

  // Invoke a message handler with bound arguments.
  static void run_handler(const ir::FilterSpec& spec, FilterState& state,
                          const std::string& method,
                          const std::vector<ir::Value>& args);
};

}  // namespace sit::runtime
