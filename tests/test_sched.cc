// Tests for balance equations, initialization schedules, and the executor.

#include <gtest/gtest.h>

#include <cmath>

#include "ir/dsl.h"
#include "sched/exec.h"
#include "sched/rational.h"
#include "sched/schedule.h"

namespace sit::sched {
namespace {

using namespace sit::ir::dsl;
using namespace sit::ir;

TEST(Rational, NormalizationAndArithmetic) {
  EXPECT_EQ(Rat(2, 4), Rat(1, 2));
  EXPECT_EQ(Rat(-2, -4), Rat(1, 2));
  EXPECT_EQ(Rat(1, -2).num(), -1);
  EXPECT_EQ((Rat(1, 2) * Rat(2, 3)), Rat(1, 3));
  EXPECT_EQ((Rat(1, 2) + Rat(1, 3)), Rat(5, 6));
  EXPECT_EQ((Rat(1, 2) / Rat(1, 4)), Rat(2));
  EXPECT_THROW(Rat(1, 0), std::invalid_argument);
  EXPECT_THROW(Rat(1) / Rat(0), std::domain_error);
}

NodeP pass(const std::string& name, int pp, int ps) {
  // Pops pp, pushes ps copies of the first item (rates only matter here).
  std::vector<StmtP> body;
  for (int i = 0; i < ps; ++i) body.push_back(push_(peek_(0)));
  body.push_back(discard(pp));
  return filter(name).rates(pp, pp, ps).work(seq(body)).node();
}

NodeP source(const std::string& name, double val, int ps) {
  std::vector<StmtP> body;
  for (int i = 0; i < ps; ++i) body.push_back(push_(c(val)));
  return filter(name).rates(0, 0, ps).work(seq(body)).node();
}

NodeP sink(const std::string& name, int pp) {
  return filter(name).rates(pp, pp, 0).work(seq({discard(pp)})).node();
}

TEST(Schedule, BalancedPipelineRepetitions) {
  // a: 1->2, b: 3->1  => reps a=3, b=2 (lcm of rates).
  auto p = make_pipeline("p", {pass("a", 1, 2), pass("b", 3, 1)});
  Executor ex(p);
  const auto& g = ex.graph();
  const auto& s = ex.schedule();
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == "a") EXPECT_EQ(s.reps[i], 3);
    if (g.actors[i].name == "b") EXPECT_EQ(s.reps[i], 2);
  }
  EXPECT_EQ(s.input_per_steady, 3);
  EXPECT_EQ(s.output_per_steady, 2);
}

TEST(Schedule, InconsistentSplitJoinThrows) {
  // Duplicate splitter, both branches 1->1, but joiner weights (1,2):
  // balance around the joiner is unsatisfiable.
  auto sj = make_splitjoin("sj", duplicate_split(), roundrobin_join({1, 2}),
                           {pass("x", 1, 1), pass("y", 1, 1)});
  EXPECT_THROW(Executor ex(sj), std::runtime_error);
}

TEST(Schedule, PeekingFilterGetsInitBuffer) {
  auto f = filter("win3")
               .rates(3, 1, 1)
               .work(seq({push_(peek_(0) + peek_(1) + peek_(2)), discard(1)}))
               .node();
  auto p = make_pipeline("p", {source("src", 1.0, 1), f, sink("snk", 1)});
  Executor ex(p);
  const auto& g = ex.graph();
  const auto& s = ex.schedule();
  // The source must fire twice during init to buffer the peek window.
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == "src") EXPECT_EQ(s.init_fires[i], 2);
    if (g.actors[i].name == "win3") EXPECT_EQ(s.init_fires[i], 0);
  }
}

TEST(Exec, PipelineComputesCorrectStream) {
  // src pushes 1,2,3,...; doubler multiplies by 2.
  auto src = filter("src")
                 .iscalar("n", 0)
                 .rates(0, 0, 1)
                 .work(seq({let("n", v("n") + 1), push_(to_float(v("n")))}))
                 .node();
  auto dbl = filter("dbl").rates(1, 1, 1).work(seq({push_(pop_() * c(2.0))})).node();
  auto p = make_pipeline("p", {src, dbl});
  Executor ex(p);
  const auto out = ex.run_steady(5);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], 2.0 * (i + 1));
}

TEST(Exec, ExternalInputViaGenerator) {
  auto dbl = filter("dbl").rates(1, 1, 1).work(seq({push_(pop_() * c(2.0))})).node();
  Executor ex(make_pipeline("p", {dbl}));
  ex.set_input_generator([](std::int64_t i) { return static_cast<double>(i); });
  const auto out = ex.run_steady(4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[3], 6.0);
}

TEST(Exec, SplitJoinRoundRobinRouting) {
  // RR(1,1) split; left adds 100, right adds 200; RR(1,1) join.
  auto l = filter("l").rates(1, 1, 1).work(seq({push_(pop_() + c(100.0))})).node();
  auto r = filter("r").rates(1, 1, 1).work(seq({push_(pop_() + c(200.0))})).node();
  auto sj = make_splitjoin("sj", roundrobin_split({1, 1}), roundrobin_join({1, 1}),
                           {l, r});
  Executor ex(sj);
  ex.set_input_generator([](std::int64_t i) { return static_cast<double>(i); });
  const auto out = ex.run_steady(3);
  ASSERT_EQ(out.size(), 6u);
  // items 0,1,2,... alternate: 0->l, 1->r, joined back in order.
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_DOUBLE_EQ(out[1], 201.0);
  EXPECT_DOUBLE_EQ(out[2], 102.0);
  EXPECT_DOUBLE_EQ(out[3], 203.0);
}

TEST(Exec, DuplicateSplitterCopies) {
  auto l = filter("l").rates(1, 1, 1).work(seq({push_(pop_())})).node();
  auto r = filter("r").rates(1, 1, 1).work(seq({push_(-pop_())})).node();
  auto sj = make_splitjoin("sj", duplicate_split(), roundrobin_join({1, 1}), {l, r});
  Executor ex(sj);
  ex.set_input_generator([](std::int64_t i) { return static_cast<double>(i + 1); });
  const auto out = ex.run_steady(2);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
  EXPECT_DOUBLE_EQ(out[3], -2.0);
}

TEST(Exec, FeedbackLoopEcho) {
  // Echo: out[i] = in[i] + 0.5 * out[i - 2].  Joiner rr(1,1) merges input
  // with delayed feedback; body adds pairs; splitter rr(1,1) sends to output
  // and back through a gain filter.
  auto body = filter("add")
                  .rates(2, 2, 2)
                  .work(seq({let("s", pop_() + pop_()), push_(v("s")), push_(v("s"))}))
                  .node();
  auto gain = filter("gain").rates(1, 1, 1).work(seq({push_(pop_() * c(0.5))})).node();
  auto fb = make_feedback("echo", roundrobin_join({1, 1}), body,
                          roundrobin_split({1, 1}), gain, 1, {0.0});
  Executor ex(fb);
  ex.set_input_generator([](std::int64_t) { return 1.0; });
  const auto out = ex.run_steady(6);
  ASSERT_GE(out.size(), 4u);
  // y0 = 1 + 0 = 1; y1 = 1 + 0.5*y0 = 1.5; y2 = 1 + 0.5*y1 = 1.75 ...
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 1.5);
  EXPECT_DOUBLE_EQ(out[2], 1.75);
}

// fire() notes high water only where a firing can have moved it: every
// channel on the first firing (initial items sit on back edges), then the
// fired actor's channels and the input after a feed.  The marks must equal
// noting every channel after every firing.  Sweeping in reverse topological
// order makes a downstream actor, not the input's consumer, fire first
// after most feeds.
TEST(Exec, HighWaterNotesOnlyWhatAFiringMoved) {
  auto body = filter("add")
                  .rates(2, 2, 2)
                  .work(seq({let("s", pop_() + pop_()), push_(v("s")), push_(v("s"))}))
                  .node();
  auto gain = filter("gain").rates(1, 1, 1).work(seq({push_(pop_() * c(0.5))})).node();
  auto avg = filter("avg")
                 .rates(3, 1, 1)
                 .work(seq({push_((peek_(0) + peek_(1) + peek_(2)) / c(3.0)),
                            discard(1)}))
                 .node();
  const NodeP graphs[] = {
      make_pipeline("fb", {pass("pre", 1, 1),
                           make_feedback("echo", roundrobin_join({1, 1}), body,
                                         roundrobin_split({1, 1}), gain, 3,
                                         {0.0, 1.0, 2.0})}),
      make_pipeline("p", {pass("up", 1, 3), avg, pass("down", 2, 1)}),
  };
  for (const NodeP& g : graphs) {
    for (const bool reverse : {false, true}) {
      SCOPED_TRACE(g->name + (reverse ? " reverse" : " forward"));
      Executor ex(ir::clone(g));
      Executor ref(ir::clone(g));
      const Schedule& s = ex.schedule();
      std::vector<int> order = s.order;
      if (reverse) order.assign(s.order.rbegin(), s.order.rend());
      const auto epoch = [&order](Executor& e, std::vector<std::int64_t> quota,
                                  bool note_all) {
        bool progress = true;
        while (progress) {
          progress = false;
          for (const int a : order) {
            while (quota[static_cast<std::size_t>(a)] > 0 && e.can_fire(a)) {
              e.fire(a);
              if (note_all) {
                for (std::size_t c = 0; c < e.graph().edges.size(); ++c) {
                  e.channel(static_cast<int>(c)).note_high_water();
                }
              }
              --quota[static_cast<std::size_t>(a)];
              progress = true;
            }
          }
        }
      };
      std::int64_t next = 0;
      const auto feed = [&next](Executor& e, std::int64_t n) {
        std::vector<double> items;
        for (std::int64_t i = 0; i < n; ++i) items.push_back(0.5 * (next + i));
        e.feed_input(items);
      };
      for (Executor* e : {&ex, &ref}) {
        next = 0;
        feed(*e, s.input_for_init);
        next += s.input_for_init;
        epoch(*e, s.init_fires, e == &ref);
        for (int k = 0; k < 5; ++k) {
          feed(*e, s.input_per_steady);
          next += s.input_per_steady;
          epoch(*e, s.reps, e == &ref);
        }
      }
      for (std::size_t c = 0; c < ex.graph().edges.size(); ++c) {
        EXPECT_EQ(ex.channel(static_cast<int>(c)).high_water(),
                  ref.channel(static_cast<int>(c)).high_water())
            << "edge " << c;
      }
    }
  }
  // One firing away from the back edge already marks its initial items.
  Executor one(ir::clone(graphs[0]));
  one.feed_input({1.0});
  one.fire(one.schedule().order.front());
  for (std::size_t c = 0; c < one.graph().edges.size(); ++c) {
    EXPECT_EQ(one.channel(static_cast<int>(c)).high_water(),
              one.channel(static_cast<int>(c)).size())
        << "edge " << c;
  }
}

TEST(Exec, PeekingFilterSlidingWindow) {
  auto avg = filter("avg")
                 .rates(3, 1, 1)
                 .work(seq({push_((peek_(0) + peek_(1) + peek_(2)) / c(3.0)),
                            discard(1)}))
                 .node();
  Executor ex(make_pipeline("p", {avg}));
  ex.set_input_generator([](std::int64_t i) { return static_cast<double>(i); });
  const auto out = ex.run_steady(4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // (0+1+2)/3
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  EXPECT_DOUBLE_EQ(out[3], 4.0);
}

TEST(Exec, OpCountsAccumulatePerActor) {
  auto dbl = filter("dbl").rates(1, 1, 1).work(seq({push_(pop_() * c(2.0))})).node();
  Executor ex(make_pipeline("p", {dbl}));
  ex.set_input_generator([](std::int64_t) { return 1.0; });
  ex.run_steady(10);
  const auto total = ex.total_ops();
  EXPECT_EQ(total.flops, 10);      // one multiply per firing
  EXPECT_EQ(total.channel, 20);    // pop + push per firing
}

TEST(Exec, BufferBoundsAreReported) {
  auto up = pass("up", 1, 7);
  auto down = pass("down", 5, 1);
  auto p = make_pipeline("p", {source("s", 1.0, 1), up, down, sink("k", 1)});
  Executor ex(p);
  const auto& s = ex.schedule();
  bool found = false;
  for (std::size_t e = 0; e < ex.graph().edges.size(); ++e) {
    if (s.buffer_bound[e] >= 7) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sit::sched
