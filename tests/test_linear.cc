// Tests for the linear module: extraction, representation round-trips,
// expansion, pipeline and split-join combination, frequency translation, and
// optimization selection.  The combination rules are verified by *property
// tests*: a collapsed filter must compute exactly the same output stream as
// the subgraph it replaces, on random programs and random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/apps.h"

#include "ir/dsl.h"
#include "linear/combine.h"
#include "linear/cost.h"
#include "linear/extract.h"
#include "linear/frequency.h"
#include "linear/linear_rep.h"
#include "linear/optimize.h"
#include "opt/compile.h"
#include "sched/exec.h"

namespace sit::linear {
namespace {

using namespace sit::ir::dsl;
using namespace sit::ir;

// ---- helpers ----------------------------------------------------------------

std::vector<double> run_graph(const NodeP& root, int items_out,
                              unsigned input_seed = 99) {
  sched::Executor ex(ir::clone(root));
  std::mt19937 rng(input_seed);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> input;
  ex.set_input_generator([&input, &rng, &d](std::int64_t i) {
    while (static_cast<std::int64_t>(input.size()) <= i) input.push_back(d(rng));
    return input[static_cast<std::size_t>(i)];
  });
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items_out && ++guard < 10000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items_out));
  return out;
}

void expect_same_stream(const NodeP& a, const NodeP& b, int items,
                        double tol = 1e-9) {
  const auto xa = run_graph(a, items);
  const auto xb = run_graph(b, items);
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    ASSERT_NEAR(xa[i], xb[i], tol) << "streams diverge at item " << i;
  }
}

LinearRep random_rep(std::mt19937& rng, int max_rate = 3, int max_extra = 3) {
  std::uniform_int_distribution<int> rate(1, max_rate);
  std::uniform_int_distribution<int> extra(0, max_extra);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  std::uniform_int_distribution<int> sparse(0, 3);
  LinearRep r;
  r.pop = rate(rng);
  r.peek = r.pop + extra(rng);
  r.push = rate(rng);
  r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
  r.b.assign(static_cast<std::size_t>(r.push), 0.0);
  for (int o = 0; o < r.push; ++o) {
    for (int i = 0; i < r.peek; ++i) {
      if (sparse(rng) != 0) {  // 75% dense
        r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = coeff(rng);
      }
    }
    if (sparse(rng) == 0) r.b[static_cast<std::size_t>(o)] = coeff(rng);
  }
  return r;
}

// ---- extraction -------------------------------------------------------------

TEST(Extract, FirFilterYieldsCoefficientMatrix) {
  // 4-tap FIR with weights from init: y = sum_i h[i] * peek(i).
  auto f = filter("fir4")
               .rates(4, 1, 1)
               .array("h", 4)
               .init(seq({for_("i", 0, 4,
                               set_at("h", v("i"), to_float(v("i")) + c(1.0)))}))
               .work(seq({let("s", c(0.0)),
                          for_("i", 0, 4,
                               let("s", v("s") + peek_(v("i")) * at("h", v("i")))),
                          push_(v("s")), discard(1)}))
               .build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value()) << res.reason;
  const LinearRep& r = *res.rep;
  EXPECT_EQ(r.peek, 4);
  EXPECT_EQ(r.pop, 1);
  EXPECT_EQ(r.push, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.A.at(0, static_cast<std::size_t>(i)), i + 1.0);
  }
  EXPECT_DOUBLE_EQ(r.b[0], 0.0);
}

TEST(Extract, AffineConstantGoesToB) {
  auto f = filter("aff").rates(1, 1, 1).work(seq({push_(pop_() * c(3.0) + c(2.5))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(res.rep->b[0], 2.5);
}

TEST(Extract, SubtractionAndNegation) {
  auto f = filter("sub").rates(2, 2, 1).work(seq({push_(-(pop_() - pop_()))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 1), 1.0);
}

TEST(Extract, RejectsProductOfInputs) {
  auto f = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).build();
  const auto res = extract(f);
  EXPECT_FALSE(res.rep.has_value());
  EXPECT_NE(res.reason.find("product"), std::string::npos);
}

TEST(Extract, RejectsStateWrites) {
  auto f = filter("acc")
               .rates(1, 1, 1)
               .scalar("s", ir::Value(0.0))
               .work(seq({let("s", v("s") + pop_()), push_(v("s"))}))
               .build();
  const auto res = extract(f);
  EXPECT_FALSE(res.rep.has_value());
  EXPECT_NE(res.reason.find("state"), std::string::npos);
  EXPECT_TRUE(writes_state(f));
}

TEST(Extract, RejectsDataDependentBranch) {
  auto f = filter("clip")
               .rates(1, 1, 1)
               .work(seq({let("x", pop_()),
                          if_(v("x") > c(0.0), push_(v("x")), push_(c(0.0)))}))
               .build();
  EXPECT_FALSE(extract(f).rep.has_value());
}

TEST(Extract, RejectsTranscendentalOfInput) {
  auto f = filter("sinf").rates(1, 1, 1).work(seq({push_(sin_(pop_()))})).build();
  EXPECT_FALSE(extract(f).rep.has_value());
}

TEST(Extract, DivisionByConstantIsLinear) {
  auto f = filter("scale").rates(1, 1, 1).work(seq({push_(pop_() / c(4.0))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 0.25);
}

TEST(Extract, ConstantConditionalIsFolded) {
  auto f = filter("cc")
               .rates(1, 1, 1)
               .work(seq({if_(E(1) == E(1), push_(pop_() * c(2.0)),
                              push_(pop_() * c(9.0)))}))
               .build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 2.0);
}

TEST(Extract, IdentityFilter) {
  const auto res = extract(dsl::identity("id")->filter);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 1.0);
}

// ---- representation round trip ----------------------------------------------

TEST(LinearRepTest, ToFilterRoundTripsThroughExtraction) {
  std::mt19937 rng(21);
  for (int trial = 0; trial < 25; ++trial) {
    const LinearRep r = random_rep(rng);
    const auto back = extract(to_filter(r, "rt"));
    ASSERT_TRUE(back.rep.has_value()) << back.reason;
    // trim_tail is not applied by to_filter, so peek can only shrink via
    // extraction if trailing columns were zero; compare entrywise on the
    // common window.
    EXPECT_EQ(back.rep->pop, r.pop);
    EXPECT_EQ(back.rep->push, r.push);
    for (int o = 0; o < r.push; ++o) {
      for (int i = 0; i < r.peek; ++i) {
        const double want = r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
        const double got = i < back.rep->peek
                               ? back.rep->A.at(static_cast<std::size_t>(o),
                                                static_cast<std::size_t>(i))
                               : 0.0;
        EXPECT_DOUBLE_EQ(got, want);
      }
      EXPECT_DOUBLE_EQ(back.rep->b[static_cast<std::size_t>(o)],
                       r.b[static_cast<std::size_t>(o)]);
    }
  }
}

TEST(LinearRepTest, ApplyMatchesFilterExecution) {
  std::mt19937 rng(4);
  const LinearRep r = random_rep(rng);
  auto node = make_filter(to_filter(r, "x"));
  const auto out = run_graph(make_pipeline("p", {node}), r.push * 3);
  // First firing consumes window = first peek inputs of the same generator.
  std::mt19937 rng2(99);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> input;
  for (int i = 0; i < r.peek + 3 * r.pop; ++i) input.push_back(d(rng2));
  std::vector<double> window(input.begin(), input.begin() + r.peek);
  const auto want = sit::linear::apply(r, window);
  for (int o = 0; o < r.push; ++o) {
    EXPECT_NEAR(out[static_cast<std::size_t>(o)], want[static_cast<std::size_t>(o)], 1e-9);
  }
}

// to_filter's row loops must reproduce, bit for bit, the left fold the
// unrolled form computed:  b + c0*w0 + c1*w1 + ...  (starting from the first
// term when b == 0, +0.0 for an all-zero row), on every engine.  The rows
// cover b != 0, b == 0, b == -0.0, all-zero rows (b zero and not), one
// stride-2 progression, a row that splits into two progressions, and a
// single nonzero.  The inputs hold -0.0 / +0.0 (a +0.0 start would turn a
// sum of -0.0 terms into +0.0) and inf / NaN, some at columns that are zero
// in a row: that row must stay finite, since a zero coefficient is never
// multiplied.
LinearRep lowering_rep() {
  LinearRep r;
  r.peek = 10;
  r.pop = 2;
  r.push = 8;
  r.A = Matrix(8, 10);
  r.b.assign(8, 0.0);
  const auto set = [&r](int o, std::vector<std::pair<int, double>> terms) {
    for (const auto& [i, c] : terms) {
      r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = c;
    }
  };
  set(0, {{0, 0.5}, {1, -1.25}, {2, 2.0}, {3, 0.125}});
  r.b[0] = 0.75;
  set(1, {{1, 0.3}, {3, -0.7}, {5, 1.1}, {7, 0.9}});  // stride 2
  // rows 2 and 3: all zero, b = 0 and b = 2.5
  r.b[3] = 2.5;
  set(4, {{0, 1.5}, {4, -2.0}, {5, 0.25}, {6, 3.0}});  // [0,4] step 4; [5,6]
  set(5, {{2, -0.5}});                                 // one nonzero
  set(6, {{1, 2.0}, {5, 0.5}});                        // stride 4
  r.b[6] = -0.0;
  set(7, {{3, 0.1}, {4, 0.2}, {5, 0.3}, {6, 0.4}, {7, 0.5}});
  r.b[7] = -3.5;
  return r;
}

// The unrolled form's left fold over one window.
std::vector<double> unrolled_fold(const LinearRep& r, const double* w) {
  std::vector<double> out;
  for (int o = 0; o < r.push; ++o) {
    const double b = r.b[static_cast<std::size_t>(o)];
    bool any = b != 0.0;
    double acc = any ? b : 0.0;
    for (int i = 0; i < r.peek; ++i) {
      const double c = r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
      if (c == 0.0) continue;
      const double term = c * w[i];
      acc = any ? acc + term : term;
      any = true;
    }
    out.push_back(acc);
  }
  return out;
}

TEST(LinearRepTest, ToFilterRowLoopsAreBitEqualToTheUnrolledFold) {
  const LinearRep r = lowering_rep();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Three firings (pop 2); the window slides over every special value.
  const std::vector<double> input = {1.5,  -0.0, -0.0, 0.0,  3.0, -0.0, -0.0,
                                     -1.0, inf,  nan,  -inf, 0.0, 2.0,  -0.0};
  const int firings = 3;
  ASSERT_EQ(static_cast<int>(input.size()), r.peek + (firings - 1) * r.pop);
  std::vector<double> want;
  for (int t = 0; t < firings; ++t) {
    const auto y = unrolled_fold(r, input.data() + t * r.pop);
    want.insert(want.end(), y.begin(), y.end());
  }
  // The inputs exercise what they are meant to.  The first window holds inf
  // and NaN only at columns 8 and 9, zero in every row, so every output of
  // the first firing is finite; row 6 sums two -0.0 terms; the second firing
  // yields an inf (row 4) and a NaN (row 7).
  for (int o = 0; o < r.push; ++o) EXPECT_TRUE(std::isfinite(want[o])) << o;
  EXPECT_TRUE(std::signbit(want[6]) && want[6] == 0.0);
  EXPECT_TRUE(std::isinf(want[8 + 4]));
  EXPECT_TRUE(std::isnan(want[8 + 7]));

  const ir::FilterSpec spec = to_filter(r, "lowered");
  // One loop per progression: 4 + 4 + 0 + 0 + 4 + 1 + 2 + 5 nonzeros in
  // 1 + 1 + 0 + 0 + 2 + 1 + 1 + 1 loops.
  int loops = 0;
  for (const auto& st : spec.work->stmts) loops += st->kind == Stmt::Kind::For;
  EXPECT_EQ(loops, 7);

  const struct {
    const char* name;
    sched::Engine engine;
  } engines[] = {{"tree", sched::Engine::Tree},
                 {"vm", sched::Engine::Vm},
                 {"fused", sched::Engine::Fused}};
  for (const auto& e : engines) {
    SCOPED_TRACE(e.name);
    sched::ExecOptions opts;
    opts.engine = e.engine;
    opts.typed = sched::TypedMode::On;
    sched::Executor ex(make_filter(spec), opts);
    if (e.engine == sched::Engine::Vm) {
      ASSERT_TRUE(ex.actor_uses_typed(0)) << ex.typed_refusal(0);
      EXPECT_EQ(ex.typed_program(0)->macs.size(), 7u);
    }
    if (e.engine == sched::Engine::Fused) {
      ASSERT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
      EXPECT_EQ(ex.fused_program()->super_count("mac-loop"), 7);
    }
    ex.feed_input(input);
    const std::vector<double> got = ex.run_steady(firings);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want[k]))
          << "item " << k << ": " << got[k] << " vs " << want[k];
    }
    EXPECT_EQ(ex.total_ops().flops, 2 * firings * static_cast<std::int64_t>(r.A.nonzeros()));
  }
}

// ---- expansion ---------------------------------------------------------------

TEST(Expand, RatesAndEquivalence) {
  std::mt19937 rng(7);
  const LinearRep r = random_rep(rng);
  const LinearRep e = expand(r, 3);
  EXPECT_EQ(e.pop, 3 * r.pop);
  EXPECT_EQ(e.push, 3 * r.push);
  EXPECT_EQ(e.peek, r.peek + 2 * r.pop);
  expect_same_stream(make_filter(to_filter(r, "orig")),
                     make_filter(to_filter(e, "expanded")), 3 * r.push * 4);
}

TEST(Expand, FactorOneIsIdentity) {
  std::mt19937 rng(8);
  const LinearRep r = random_rep(rng);
  EXPECT_TRUE(expand(r, 1) == r);
  EXPECT_THROW(expand(r, 0), std::invalid_argument);
}

// ---- pipeline combination (property test) ------------------------------------

struct PipeCase {
  unsigned seed;
};

class CombinePipelineP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombinePipelineP, CollapsedFilterMatchesPipeline) {
  std::mt19937 rng(GetParam());
  const LinearRep a = random_rep(rng);
  const LinearRep b = random_rep(rng);
  const LinearRep c = combine_pipeline(a, b);

  auto orig = make_pipeline("orig", {make_filter(to_filter(a, "A")),
                                     make_filter(to_filter(b, "B"))});
  auto collapsed = make_filter(to_filter(c, "C"));
  expect_same_stream(orig, collapsed, 3 * c.push + 5);
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, CombinePipelineP,
                         ::testing::Range(100u, 140u));

TEST(CombinePipeline, ThreeStageChain) {
  std::mt19937 rng(77);
  const LinearRep a = random_rep(rng);
  const LinearRep b = random_rep(rng);
  const LinearRep c = random_rep(rng);
  const LinearRep abc = combine_pipeline({a, b, c});
  auto orig = make_pipeline("orig", {make_filter(to_filter(a, "A")),
                                     make_filter(to_filter(b, "B")),
                                     make_filter(to_filter(c, "C"))});
  expect_same_stream(orig, make_filter(to_filter(abc, "ABC")), 3 * abc.push + 2);
}

TEST(CombinePipeline, TwoFirsCollapseToOneFir) {
  // FIR(h1) ; FIR(h2) == FIR(h1 conv h2): rates collapse to peek k1+k2-1.
  auto fir = [](const std::vector<double>& h) {
    LinearRep r;
    r.peek = static_cast<int>(h.size());
    r.pop = 1;
    r.push = 1;
    r.A = Matrix(1, h.size());
    for (std::size_t i = 0; i < h.size(); ++i) r.A.at(0, i) = h[i];
    r.b = {0.0};
    return r;
  };
  const LinearRep c = combine_pipeline(fir({1.0, 2.0}), fir({1.0, -1.0}));
  EXPECT_EQ(c.pop, 1);
  EXPECT_EQ(c.push, 1);
  EXPECT_EQ(c.peek, 3);
  // y[t] = (x[t]+2x[t+1]) composed: B output = A_out[t] - A_out[t+1] with
  // window-forward convention: coefficients {1*1, 2-1? ...} -- verified by
  // stream equality, and the tap count is what the paper's FIR fusion gives.
  expect_same_stream(
      make_pipeline("p", {make_filter(to_filter(fir({1.0, 2.0}), "f1")),
                          make_filter(to_filter(fir({1.0, -1.0}), "f2"))}),
      make_filter(to_filter(c, "c")), 12);
}

TEST(CombinePipeline, DegenerateRatesThrow) {
  LinearRep src;  // push-only
  src.peek = src.pop = 0;
  src.push = 1;
  src.A = Matrix(1, 0);
  src.b = {1.0};
  std::mt19937 rng(3);
  const LinearRep b = random_rep(rng);
  EXPECT_THROW(combine_pipeline(b, src), std::invalid_argument);
}

// ---- splitjoin combination (property test) -----------------------------------

class CombineSplitJoinDupP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombineSplitJoinDupP, DuplicateSplitterCollapse) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nch(2, 4);
  const int n = nch(rng);
  std::vector<LinearRep> reps;
  std::vector<NodeP> children;
  std::vector<int> jw;
  // Duplicate splitter: all children must pop the same amount for a simple
  // instance; give them a common pop and independent peek/push.
  std::uniform_int_distribution<int> rate(1, 3);
  const int pop = rate(rng);
  for (int i = 0; i < n; ++i) {
    LinearRep r = random_rep(rng);
    r.pop = pop;
    if (r.peek < pop) r.peek = pop;
    // Rebuild matrix for new rates.
    Matrix m(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
    std::uniform_real_distribution<double> coeff(-1.0, 1.0);
    for (int o = 0; o < r.push; ++o) {
      for (int k = 0; k < r.peek; ++k) {
        m.at(static_cast<std::size_t>(o), static_cast<std::size_t>(k)) = coeff(rng);
      }
    }
    r.A = std::move(m);
    reps.push_back(r);
    children.push_back(make_filter(to_filter(r, "ch" + std::to_string(i))));
    jw.push_back(r.push);  // joiner takes each child's whole firing per cycle
  }
  const LinearRep c = combine_splitjoin(duplicate_split(), reps, jw);
  auto orig = make_splitjoin("sj", duplicate_split(), roundrobin_join(jw), children);
  expect_same_stream(orig, make_filter(to_filter(c, "C")), 2 * c.push + 3);
}

INSTANTIATE_TEST_SUITE_P(RandomDupSplitJoins, CombineSplitJoinDupP,
                         ::testing::Range(200u, 220u));

class CombineSplitJoinRRP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombineSplitJoinRRP, RoundRobinSplitterCollapse) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nch(2, 3);
  std::uniform_int_distribution<int> wdist(1, 3);
  const int n = nch(rng);
  std::vector<LinearRep> reps;
  std::vector<NodeP> children;
  std::vector<int> sw, jw;
  for (int i = 0; i < n; ++i) {
    LinearRep r = random_rep(rng, /*max_rate=*/2, /*max_extra=*/2);
    reps.push_back(r);
    children.push_back(make_filter(to_filter(r, "ch" + std::to_string(i))));
    sw.push_back(r.pop * wdist(rng));  // splitter weight = multiple of pop
    jw.push_back(r.push * (sw.back() / r.pop));  // keeps joiner balanced
  }
  const LinearRep c = combine_splitjoin(roundrobin_split(sw), reps, jw);
  auto orig = make_splitjoin("sj", roundrobin_split(sw), roundrobin_join(jw),
                             children);
  expect_same_stream(orig, make_filter(to_filter(c, "C")), 2 * c.push + 3);
}

INSTANTIATE_TEST_SUITE_P(RandomRRSplitJoins, CombineSplitJoinRRP,
                         ::testing::Range(300u, 320u));

TEST(CombineSplitJoin, InconsistentRatesThrow) {
  std::mt19937 rng(31);
  LinearRep a = random_rep(rng);
  a.pop = 1;
  a.push = 1;
  a.peek = 1;
  a.A = Matrix(1, 1);
  a.A.at(0, 0) = 1.0;
  a.b = {0.0};
  LinearRep b = a;
  b.push = 2;
  b.A = Matrix(2, 1);
  b.A.at(0, 0) = 1.0;
  b.A.at(1, 0) = 1.0;
  b.b = {0.0, 0.0};
  // Duplicate split, join weights (1,1): a produces 1/input, b produces 2.
  EXPECT_THROW(combine_splitjoin(duplicate_split(), {a, b}, {1, 1}),
               std::invalid_argument);
}

// ---- frequency translation ----------------------------------------------------

class FrequencyP : public ::testing::TestWithParam<unsigned> {};

TEST_P(FrequencyP, FrequencyFilterMatchesDirect) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> taps(4, 24);
  std::uniform_int_distribution<int> pushes(1, 3);
  std::uniform_real_distribution<double> coeff(-1.0, 1.0);
  LinearRep r;
  r.pop = 1;
  r.peek = taps(rng);
  r.push = pushes(rng);
  r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
  r.b.assign(static_cast<std::size_t>(r.push), 0.0);
  for (int o = 0; o < r.push; ++o) {
    for (int i = 0; i < r.peek; ++i) {
      r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = coeff(rng);
    }
    r.b[static_cast<std::size_t>(o)] = coeff(rng);
  }
  ASSERT_TRUE(frequency_applicable(r));
  auto freq = make_frequency_filter(r, "freq", 64);
  expect_same_stream(make_filter(to_filter(r, "direct")), freq, 150, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomFirs, FrequencyP, ::testing::Range(400u, 415u));

TEST(Frequency, NotApplicableToDecimators) {
  std::mt19937 rng(9);
  LinearRep r = random_rep(rng);
  r.pop = 2;
  r.peek = std::max(r.peek, 2);
  EXPECT_FALSE(frequency_applicable(r));
  EXPECT_THROW(make_frequency_filter(r, "x"), std::invalid_argument);
}

TEST(Frequency, CostFavorsFftForLongFilters) {
  LinearRep longfir;
  longfir.pop = 1;
  longfir.peek = 256;
  longfir.push = 1;
  longfir.A = Matrix(1, 256);
  for (int i = 0; i < 256; ++i) longfir.A.at(0, static_cast<std::size_t>(i)) = 1.0;
  longfir.b = {0.0};
  const std::size_t n = best_fft_size(longfir);
  ASSERT_NE(n, 0u);
  EXPECT_LT(frequency_cost_per_firing(longfir, n),
            longfir.cost_flops_per_firing());

  LinearRep shortfir = longfir;
  shortfir.peek = 3;
  shortfir.A = Matrix(1, 3);
  for (int i = 0; i < 3; ++i) shortfir.A.at(0, static_cast<std::size_t>(i)) = 1.0;
  EXPECT_EQ(best_fft_size(shortfir), 0u);
}

// ---- optimization selection -----------------------------------------------------

NodeP fir_node(const std::string& name, const std::vector<double>& h) {
  std::vector<ir::Value> init;
  init.reserve(h.size());
  for (double x : h) init.emplace_back(x);
  const int n = static_cast<int>(h.size());
  return filter(name)
      .rates(n, 1, 1)
      .array_init("h", init)
      .work(seq({let("s", c(0.0)),
                 for_("i", 0, n, let("s", v("s") + peek_(v("i")) * at("h", v("i")))),
                 push_(v("s")), discard(1)}))
      .node();
}

TEST(Optimize, CollapsesPipelineOfFirs) {
  auto p = make_pipeline("p", {fir_node("f1", {1.0, 0.5, 0.25, 0.1, 0.05}),
                               fir_node("f2", {0.5, -0.5, 0.25, -0.25})});
  OptimizeStats stats;
  OptimizeOptions opts;
  opts.enable_frequency = false;
  auto q = optimize_selection(p, opts, &stats);
  EXPECT_EQ(stats.linear_filters, 2);
  EXPECT_GE(stats.combinations, 1);
  EXPECT_LE(stats.cost_after, stats.cost_before + 1e-9);
  EXPECT_EQ(count_filters(q), 1);
  expect_same_stream(p, q, 40);
}

TEST(Optimize, TranslatesLongFirToFrequency) {
  std::vector<double> h(128);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = 1.0 / (1.0 + static_cast<double>(i));
  auto p = make_pipeline("p", {fir_node("long", h)});
  OptimizeStats stats;
  auto q = optimize_selection(p, {}, &stats);
  EXPECT_EQ(stats.frequency_nodes, 1);
  EXPECT_LT(stats.cost_after, stats.cost_before);
  expect_same_stream(p, q, 200, 1e-7);
}

TEST(Optimize, LeavesNonlinearAlone) {
  auto sq = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).node();
  auto p = make_pipeline("p", {sq});
  OptimizeStats stats;
  auto q = optimize_selection(p, {}, &stats);
  EXPECT_EQ(stats.linear_filters, 0);
  EXPECT_EQ(stats.combinations, 0);
  expect_same_stream(p, q, 20);
}

TEST(Optimize, MixedPipelineCollapsesOnlyLinearRun) {
  auto sq = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).node();
  auto p = make_pipeline("p", {fir_node("f1", {1.0, 2.0, 1.0, 0.5}),
                               fir_node("f2", {0.25, 0.5, 0.25}), sq,
                               fir_node("f3", {1.0, -1.0, 0.5, -0.5}),
                               fir_node("f4", {0.5, 0.5, 0.1})});
  OptimizeStats stats;
  OptimizeOptions opts;
  opts.enable_frequency = false;
  auto q = optimize_selection(p, opts, &stats);
  EXPECT_EQ(stats.linear_filters, 4);
  // f1+f2 collapse, sq survives, f3+f4 collapse -> 3 filters.
  EXPECT_EQ(count_filters(q), 3);
  expect_same_stream(p, q, 40);
}

TEST(Optimize, ExtractTreeOnSplitJoin) {
  auto sj = make_splitjoin(
      "sub", duplicate_split(), roundrobin_join({1, 1}),
      {fir_node("lo", {0.5, 0.5}), fir_node("hi", {0.5, -0.5})});
  const auto rep = extract_tree(sj);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->pop, 1);
  EXPECT_EQ(rep->push, 2);
  EXPECT_EQ(rep->peek, 2);
}

// ---- work estimation ----------------------------------------------------------

TEST(Cost, EstimateWorkMemoDoesNotOwnTheAst) {
  // The memo must not own the work AST: every compile mints fresh ones
  // (linear combination makes large ones), and an owning memo would keep
  // them all alive for the life of the process.
  NodeP fir = fir_node("memo_fir", {0.5, 0.25, 0.125});
  const ir::FilterSpec& spec = fir->filter;
  const long before = spec.work.use_count();
  const runtime::OpCounts first = estimate_work(spec);
  EXPECT_EQ(spec.work.use_count(), before);
  EXPECT_GT(first.flops, 0);

  const runtime::OpCounts second = estimate_work(spec);  // memo hit
  EXPECT_EQ(spec.work.use_count(), before);
  EXPECT_EQ(second.flops, first.flops);
  EXPECT_EQ(second.int_ops, first.int_ops);
  EXPECT_EQ(second.mem, first.mem);
  EXPECT_EQ(second.channel, first.channel);

  const std::weak_ptr<const ir::Stmt> ast = spec.work;
  fir.reset();
  EXPECT_TRUE(ast.expired());
}

void expect_counts_equal(const runtime::OpCounts& want,
                         const runtime::OpCounts& got, const std::string& what) {
  EXPECT_EQ(got.int_ops, want.int_ops) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
  EXPECT_EQ(got.divs, want.divs) << what;
  EXPECT_EQ(got.trans, want.trans) << what;
  EXPECT_EQ(got.mem, want.mem) << what;
  EXPECT_EQ(got.channel, want.channel) << what;
}

// direct_work(rep) counts from the matrix what interpreting the collapsed
// filter would tally; selection relies on the two being identical.
void expect_direct_work_exact(const LinearRep& r, const std::string& what) {
  expect_counts_equal(estimate_work(to_filter(r, "analytic")), direct_work(r),
                      what);
}

TEST(Cost, DirectWorkEqualsInterpreterOnRandomReps) {
  std::mt19937 rng(1501);
  std::uniform_int_distribution<int> shape(0, 5);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  for (int t = 0; t < 200; ++t) {
    LinearRep r = random_rep(rng, 6, 5);
    switch (t % 4) {
      case 0: r.pop = 0; break;  // peeks without consuming
      case 1: r.pop = std::min(r.pop, 1); break;
      default: break;            // pop k
    }
    r.peek = std::max(r.peek, r.pop);
    r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
    for (int o = 0; o < r.push; ++o) {
      const int kind = shape(rng);  // 0: all-zero row, else sparse/dense
      for (int i = 0; i < r.peek && kind != 0; ++i) {
        if (shape(rng) < kind) {
          r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = coeff(rng);
        }
      }
      r.b[static_cast<std::size_t>(o)] = shape(rng) < 2 ? coeff(rng) : 0.0;
    }
    expect_direct_work_exact(r, "random rep " + std::to_string(t) + "\n" +
                                    r.describe());
  }
}

// Every linear rep the selection DP forms over `node`: each linear leaf,
// each combinable pipeline interval (folded left to right as the DP does)
// and each combinable split-join, within the DP's matrix-size guard.
std::optional<LinearRep> dp_reps(const NodeP& node, std::vector<LinearRep>& out) {
  const OptimizeOptions opts;
  auto fits = [&opts](const LinearRep& r) {
    return static_cast<std::size_t>(r.peek) * static_cast<std::size_t>(r.push) <=
           opts.max_matrix_entries;
  };
  std::optional<LinearRep> rep;
  switch (node->kind) {
    case Node::Kind::Filter:
      rep = extract(node->filter).rep;
      break;
    case Node::Kind::Native:
      break;
    case Node::Kind::FeedbackLoop:
      dp_reps(node->children[0], out);
      dp_reps(node->children[1], out);
      return std::nullopt;
    case Node::Kind::Pipeline: {
      const std::size_t k = node->children.size();
      std::vector<std::optional<LinearRep>> kids;
      for (const NodeP& c : node->children) kids.push_back(dp_reps(c, out));
      std::optional<LinearRep> whole;
      for (std::size_t i = 0; i < k; ++i) {
        std::optional<LinearRep> acc = kids[i];
        for (std::size_t j = i + 1; j < k && acc && kids[j]; ++j) {
          try {
            LinearRep r = combine_pipeline(*acc, *kids[j]);
            acc = fits(r) ? std::optional<LinearRep>(std::move(r)) : std::nullopt;
          } catch (const std::exception&) {
            acc.reset();
          }
          if (acc) out.push_back(*acc);
          if (i == 0 && j == k - 1) whole = acc;
        }
      }
      return k == 1 ? kids[0] : whole;
    }
    case Node::Kind::SplitJoin: {
      std::vector<LinearRep> kids;
      bool all = true;
      for (const NodeP& c : node->children) {
        auto r = dp_reps(c, out);
        if (r) {
          kids.push_back(*r);
        } else {
          all = false;
        }
      }
      if (all && node->split.kind != SJKind::Null &&
          node->join.kind == SJKind::RoundRobin) {
        try {
          LinearRep r = combine_splitjoin(node->split, kids, node->join.weights);
          if (fits(r)) rep = std::move(r);
        } catch (const std::exception&) {
        }
      }
      break;
    }
  }
  if (rep) out.push_back(*rep);
  return rep;
}

TEST(Cost, DirectWorkEqualsInterpreterOnEveryAppCandidate) {
  // The graphs the two linear passes see when each app compiles at -O2.
  std::size_t checked = 0;
  for (const apps::AppInfo& app : apps::all_apps()) {
    std::vector<NodeP> inputs;
    NodeP prev;
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    copts.on_pass = [&](const obs::PassSnapshot& s, const NodeP& g) {
      if (s.name == "linear-combine" || s.name == "frequency") {
        inputs.push_back(prev);
      }
      prev = g;
    };
    opt::compile(app.make(), copts);
    ASSERT_EQ(inputs.size(), 2u) << app.name;
    for (const NodeP& g : inputs) {
      std::vector<LinearRep> reps;
      dp_reps(g, reps);
      for (const LinearRep& r : reps) {
        expect_direct_work_exact(r, app.name + ": " +
                                        std::to_string(r.peek) + "x" +
                                        std::to_string(r.push));
      }
      checked += reps.size();
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(Cost, FrequencyShapeMatchesBuiltNative) {
  std::mt19937 rng(77);
  for (int t = 0; t < 20; ++t) {
    LinearRep r = random_rep(rng, 4, 30);
    r.pop = 1;
    r.peek = std::max(r.peek, 2);
    r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
    const std::size_t n = 2 * static_cast<std::size_t>(r.peek) + 8;
    const FrequencyShape f = frequency_shape(r, n);
    const NodeP built = make_frequency_filter(r, "shape", n);
    EXPECT_EQ(f.peek, built->native.peek);
    EXPECT_EQ(f.pop, built->native.pop);
    EXPECT_EQ(f.push, built->native.push);
    EXPECT_EQ(f.cost_flops, built->native.cost_flops);
    EXPECT_EQ(f.cost_ops, built->native.cost_ops);
  }
}

}  // namespace
}  // namespace sit::linear
