#pragma once
// Pass-pipeline semantic verifier.
//
// Every pass of the compilation pipeline (opt/pass_manager.h) is supposed to
// preserve the stream-graph invariants scheduling and execution depend on.
// Before this verifier, a miscompile only surfaced as a differential-test
// failure with no indication of *which* pass broke *what*.  verify_flat /
// verify_graph check those invariants directly, so the pass manager can run
// them after every pass (PassOptions::verify_each, env SIT_VERIFY) and name
// the offending pass the moment an invariant breaks.
//
// Checks, each with a stable diagnostic code (Diagnostic::code):
//
//   V-STRUCT  structural well-formedness of the flat graph: edge/actor
//             cross-references and port tables agree, rate arrays match the
//             port counts, rates are non-negative, filters have at most one
//             input and one output, at most one external input/output edge
//             and the FlatGraph fields point at them.
//   V-SJ      splitjoin weight sums: a round-robin splitter consumes exactly
//             the sum of its branch weights per firing (joiner dually), and
//             a duplicate splitter is 1 -> 1 per branch.
//   V-RATES   push/pop/peek rate consistency: the balance equations have a
//             solution and the minimal steady-state multiplicities are
//             positive integers.
//   V-ORDER   dag-ness of the actor partition order: the forward edges
//             (ignoring declared back edges) admit a topological order
//             covering every actor.
//   V-STATE   state ownership: no filter state (ir::Node) is referenced by
//             two flat actors -- every legitimate rewrite clones, so an
//             aliased node means two partitions would share mutable state.
//   V-SCHED   deadlock freedom: the initialization epoch converges and the
//             init and steady epochs complete (so every static channel bound
//             is finite).
//
// V-STRUCT, V-SJ and V-STATE are checked here, independently of the passes
// being verified.  V-RATES, V-ORDER and V-SCHED are the SDF solver's own
// diagnostics (analysis/sdf.h): the verifier accepts a graph exactly when
// make_schedule can schedule it, and the analysis gate (analyze.h step 3)
// runs this verifier too.
//
// verify_flat takes an already-flattened graph (mutation tests corrupt flat
// graphs directly); verify_graph flattens a hierarchical program first and
// reports a flattening failure as V-STRUCT.

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "ir/graph.h"
#include "runtime/flatgraph.h"

namespace sit::analysis {

// An error of pass "verify" carrying one of the codes above.
Diagnostic verify_error(const char* code, std::string where,
                        std::string message, std::string detail = {});

// All diagnostics carry pass = "verify" and one of the codes above.
std::vector<Diagnostic> verify_flat(const runtime::FlatGraph& g);
std::vector<Diagnostic> verify_graph(const ir::NodeP& root);

}  // namespace sit::analysis
