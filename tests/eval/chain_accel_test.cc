#include "src/eval/chain_accel.h"

#include <gtest/gtest.h>

#include "src/analysis/stratifier.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

std::optional<ChainAccelerator::ChainInfo> DetectIn(const char* text,
                                                    size_t rule_index) {
  auto program = Parser::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  auto strat = Stratify(*program);
  EXPECT_TRUE(strat.ok()) << strat.status();
  return ChainAccelerator::Detect(program->rules()[rule_index],
                                  strat->predicate_stratum);
}

TEST(ChainAccelTest, DetectsPaperChainShapes) {
  // Rule 2: isOpen persistence.
  auto r2 = DetectIn(
      "isOpen(A) :- tranM(A, M) .\n"
      "isOpen(A) :- boxminus isOpen(A), not withdraw(A) .\n",
      1);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->step, Rational(1));
  EXPECT_EQ(r2->negated_guards.size(), 1u);
  EXPECT_TRUE(r2->positive_guards.empty());

  // Rule 13 shape: positive lower-stratum guard plus existential negation.
  auto r13 = DetectIn(
      "isOpen(A) :- tranM(A, M) .\n"
      "order(A, S) :- modPos(A, S) .\n"
      "position(A, S, N) :- init(A, S, N) .\n"
      "position(A, S, N) :- diamondminus position(A, S, N), "
      "not order(A, _), isOpen(A) .\n",
      3);
  ASSERT_TRUE(r13.has_value());
  EXPECT_EQ(r13->positive_guards.size(), 1u);
  EXPECT_EQ(r13->negated_guards.size(), 1u);
}

TEST(ChainAccelTest, DetectsFutureChains) {
  auto info = DetectIn(
      "p(A) :- seed(A) .\n"
      "p(A) :- boxplus[2,2] p(A), not stop(A) .\n",
      1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->step, Rational(-2));
}

TEST(ChainAccelTest, RejectsNonChainShapes) {
  // Head/body argument mismatch.
  EXPECT_FALSE(DetectIn(
                   "p(A, B) :- seed(A, B) .\n"
                   "p(B, A) :- boxminus p(A, B) .\n",
                   1)
                   .has_value());
  // Non-punctual window.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus[0,2] p(A) .\n",
                   1)
                   .has_value());
  // Zero shift would not advance.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus[0,0] p(A) .\n",
                   1)
                   .has_value());
  // Builtins in the body.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), A > 0 .\n",
                   1)
                   .has_value());
  // Guard in the same stratum (mutual recursion).
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), q(A) .\n"
                   "q(A) :- boxminus p(A) .\n",
                   1)
                   .has_value());
  // A positive guard with a free variable multiplies bindings.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), g(A, X) .\n",
                   1)
                   .has_value());
}

// Differential property: for a family of generated chain programs, the
// accelerated materialization equals the tick-by-tick one.
class ChainAccelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainAccelDifferentialTest, AcceleratedEqualsNaiveChain) {
  int seed_time = GetParam();
  std::string text =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "deposit(x)@" + std::to_string(seed_time) + " .\n" +
      "deposit(x)@" + std::to_string(seed_time + 7) + " .\n" +
      "close(x)@" + std::to_string(seed_time + 4) + " .\n" +
      "close(x)@" + std::to_string(seed_time + 11) + " .";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions on;
  on.min_time = Rational(0);
  on.max_time = Rational(seed_time + 20);
  EngineOptions off = on;
  off.enable_chain_acceleration = false;
  Database db_on = unit->database;
  Database db_off = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db_on, on).ok());
  ASSERT_TRUE(Materialize(unit->program, &db_off, off).ok());
  EXPECT_EQ(db_on.ToString(), db_off.ToString());
  // The chain restarts after the second deposit and stops at each close.
  EXPECT_TRUE(db_on.Holds("open", {Value::Symbol("x")},
                          Rational(seed_time + 3)));
  EXPECT_FALSE(db_on.Holds("open", {Value::Symbol("x")},
                           Rational(seed_time + 4)));
  EXPECT_TRUE(db_on.Holds("open", {Value::Symbol("x")},
                          Rational(seed_time + 10)));
  EXPECT_FALSE(db_on.Holds("open", {Value::Symbol("x")},
                           Rational(seed_time + 12)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainAccelDifferentialTest,
                         ::testing::Values(1, 2, 5, 13));

TEST(ChainAccelTest, IntervalSeedsWalkByShifting) {
  // A seed holding over an interval propagates as a widening band.
  auto unit = Parser::Parse(
      "p(A) :- seed(A) .\n"
      "p(A) :- boxminus p(A), not stop(A) .\n"
      "seed(x)@[0,3] . stop(x)@[6,100] .");
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db, options).ok());
  // p holds on [0,3], then shifted copies merge: [0,4], [0,5]; blocked at 6.
  EXPECT_TRUE(db.Holds("p", {Value::Symbol("x")}, Rational(5)));
  EXPECT_FALSE(db.Holds("p", {Value::Symbol("x")}, Rational(6)));
}

// Chains guarded by another chain: the guard g is itself a tick-by-tick
// chain, so its extent is a punctual grid (one allowed component per point)
// - the shape of the paper's isOpen/marketOpen/position guards. The blocker
// stop reads g, which lifts p one stratum above its guard. Each case
// materializes with and without acceleration, requires identical databases,
// and pins the accelerator's extension count.
struct GridRun {
  std::string db;
  size_t chain_extensions = 0;
};

GridRun RunGuardedChain(const std::string& text, int64_t max_time,
                        bool accel, bool compile = true) {
  auto unit = Parser::Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(max_time);
  options.enable_chain_acceleration = accel;
  options.enable_rule_compile = compile;
  Database db = unit->database;
  EngineStats stats;
  Status status = Materialize(unit->program, &db, options, &stats);
  EXPECT_TRUE(status.ok()) << status;
  return {db.ToString(), stats.chain_extensions};
}

void ExpectGridMatchesUnaccelerated(const std::string& facts,
                                    int64_t max_time, size_t extensions,
                                    bool future = false) {
  const std::string op = future ? "boxplus[1,1]" : "boxminus[1,1]";
  const std::string text =
      "g(A) :- gs(A) .\n"
      "g(A) :- " + op + " g(A), not gstop(A) .\n"
      "stop(A) :- halt(A), g(A) .\n"
      "p(A) :- seed(A) .\n"
      "p(A) :- " + op + " p(A), g(A), not stop(A) .\n" + facts;
  GridRun on = RunGuardedChain(text, max_time, true);
  GridRun off = RunGuardedChain(text, max_time, false);
  EXPECT_EQ(on.db, off.db);
  EXPECT_EQ(off.chain_extensions, 0u);
  EXPECT_EQ(on.chain_extensions, extensions);
}

TEST(ChainAccelTest, PunctualGuardGridAligned) {
  // g holds at 0, 1, ..., 100; p walks from 5 to the window end.
  ExpectGridMatchesUnaccelerated("gs(x)@0 . seed(x)@5 .", 100, 386);
}

TEST(ChainAccelTest, PunctualGuardGridBlockerMidRun) {
  // halt(x)@50 ends p's run at 49; the guard grid itself runs on.
  ExpectGridMatchesUnaccelerated("gs(x)@0 . seed(x)@5 . halt(x)@50 .", 100,
                                 284);
}

TEST(ChainAccelTest, PunctualGuardGridMisaligned) {
  // g holds at k + 1/2 only, so p's next grid point (6) is never allowed.
  ExpectGridMatchesUnaccelerated("gs(x)@0.5 . seed(x)@5 .", 100, 196);
}

TEST(ChainAccelTest, PunctualGuardGridSecondSeedAhead) {
  // The walk from 5 runs into the seed at 40: coverage stops it mid-run.
  ExpectGridMatchesUnaccelerated("gs(x)@0 . seed(x)@5 . seed(x)@40 .", 100,
                                 384);
}

TEST(ChainAccelTest, PunctualGuardGridLongerThanBatchCap) {
  // 4998 grid points to walk: more than one batch's worth.
  ExpectGridMatchesUnaccelerated("gs(x)@0 . seed(x)@2 .", 5000, 19992);
}

TEST(ChainAccelTest, PunctualGuardGridBackwardWalk) {
  // boxplus chains walk toward the window start: g from 100 down to 0, p
  // from 90 down to the blocker at 30.
  ExpectGridMatchesUnaccelerated("gs(x)@100 . seed(x)@90 . halt(x)@30 .", 100,
                                 314, /*future=*/true);
}

// Long punctual seed runs over a multi-component allowed set. The seed s
// is itself a chain, finished in a lower stratum (the never-true sdone
// lifts p above it), so p's first delta is a run of 3000 grid-consecutive
// points: the compiled kernel answers "is the next point allowed?" for the
// run's interior with one cursor over the allowed components, and the run
// crosses holes (701-702 and 1801 forward) where that answer is no. From
// the run's end p walks 2600 points - more than one 2048-point batch -
// across three allowed components to the blocker. The batched VM walk and
// the point-by-point ChainAccelerator (rule compilation off) must derive
// the same database and count the same extensions, and both must match the
// unaccelerated chase.
void ExpectSeedRunWalkMatches(const std::string& op, const std::string& facts,
                              size_t extensions) {
  const std::string text =
      "s(A) :- ss(A) .\n"
      "s(A) :- " + op + " s(A), not sstop(A) .\n"
      "sdone(A) :- s(A), sstop(A) .\n"
      "p(A) :- s(A), not sdone(A) .\n"
      "p(A) :- " + op + " p(A), g(A), not stop(A) .\n" + facts;
  GridRun vm = RunGuardedChain(text, 6000, true);
  GridRun walker = RunGuardedChain(text, 6000, true, /*compile=*/false);
  GridRun off = RunGuardedChain(text, 6000, false);
  EXPECT_EQ(vm.db, walker.db);
  EXPECT_EQ(vm.db, off.db);
  EXPECT_EQ(vm.chain_extensions, walker.chain_extensions);
  EXPECT_EQ(vm.chain_extensions, extensions);
}

TEST(ChainAccelTest, SeedRunStraddlesAllowedComponentsForward) {
  ExpectSeedRunWalkMatches(
      "boxminus[1,1]",
      "ss(x)@0 . sstop(x)@3000 . stop(x)@5600 .\n"
      "g(x)@[0,700] . g(x)@[703,1500] . g(x)@[1500.5,1800] .\n"
      "g(x)@(1801,3500] . g(x)@[3500.5,4200] . g(x)@[4200.5,6000] .",
      14190);
}

TEST(ChainAccelTest, SeedRunStraddlesAllowedComponentsBackward) {
  // The forward case mirrored by t -> 6000 - t: a boxplus chain walks
  // toward the window start, and each batch is built from a descending run.
  ExpectSeedRunWalkMatches(
      "boxplus[1,1]",
      "ss(x)@6000 . sstop(x)@3000 . stop(x)@400 .\n"
      "g(x)@[5300,6000] . g(x)@[4500,5297] . g(x)@[4200,4499.5] .\n"
      "g(x)@[2500,4199) . g(x)@[1800,2499.5] . g(x)@[0,1799.5] .",
      14190);
}

}  // namespace
}  // namespace dmtl
