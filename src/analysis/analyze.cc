#include "analysis/analyze.h"

#include "analysis/constprop.h"
#include "analysis/definite_init.h"
#include "analysis/intervals.h"
#include "analysis/verify.h"
#include "ir/validate.h"

namespace sit::analysis {

namespace {

void run_filter_passes(const ir::FilterSpec& f, std::vector<Diagnostic>& ds) {
  // Constant folding: only its diagnostics (div/mod by a constant zero)
  // matter here; the folded bodies are consumed by the linear extractor.
  const auto fold_into = [&ds](const ir::StmtP& body, const std::string& where) {
    if (!body) return;
    FoldResult fr = fold_body(body, where);
    ds.insert(ds.end(), fr.diagnostics.begin(), fr.diagnostics.end());
  };
  fold_into(f.init, f.name + "/init");
  fold_into(f.work, f.name + "/work");
  for (const auto& [name, h] : f.handlers) {
    fold_into(h.body, f.name + "/handler(" + name + ")");
  }

  check_bounds(f, ds);
  check_definite_init(f, ds);
}

}  // namespace

AnalysisResult analyze(const ir::NodeP& root) {
  AnalysisResult r;
  r.diagnostics = ir::check(root);
  const bool structural_ok = !has_errors(r.diagnostics);

  ir::visit(root, [&](const ir::NodeP& n) {
    if (n && n->kind == ir::Node::Kind::Filter) {
      run_filter_passes(n->filter, r.diagnostics);
    }
  });

  if (structural_ok) {
    const std::vector<Diagnostic> ds = verify_graph(root);
    r.diagnostics.insert(r.diagnostics.end(), ds.begin(), ds.end());
  }
  return r;
}

}  // namespace sit::analysis
