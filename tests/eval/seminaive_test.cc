#include "src/eval/seminaive.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

// Materializes a combined rules+facts text under the given options and
// returns the resulting database rendering.
std::string RunText(const char* text, EngineOptions options = {},
                EngineStats* stats = nullptr) {
  auto unit = Parser::Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status();
  Database db = unit->database;
  Status status = Materialize(unit->program, &db, options, stats);
  EXPECT_TRUE(status.ok()) << status;
  return db.ToString();
}

EngineOptions Window(int64_t lo, int64_t hi) {
  EngineOptions options;
  options.min_time = Rational(lo);
  options.max_time = Rational(hi);
  return options;
}

TEST(SemiNaiveTest, NonRecursiveProgram) {
  EXPECT_EQ(RunText("q(X) :- p(X) .\n p(a)@[1,3] ."),
            "p(a)@{[1,3]}\nq(a)@{[1,3]}\n");
}

TEST(SemiNaiveTest, TransitiveClosure) {
  std::string out = RunText(
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[5,10] . edge(c, d)@[0,4] .");
  // reach(a,c) only while both edges hold; reach(a,d) never (disjoint).
  EXPECT_NE(out.find("reach(a, b)@{[0,10]}"), std::string::npos);
  EXPECT_NE(out.find("reach(a, c)@{[5,10]}"), std::string::npos);
  EXPECT_EQ(out.find("reach(a, d)"), std::string::npos);
}

TEST(SemiNaiveTest, TemporalSelfPropagation) {
  std::string out = RunText(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "deposit(x)@2 . close(x)@6 .",
      Window(0, 10));
  EXPECT_NE(out.find("open(x)@{[2,2] [3,3] [4,4] [5,5]}"), std::string::npos);
}

TEST(SemiNaiveTest, HorizonClampsUnboundedPropagation) {
  // Without a close event the chain would run forever; the horizon stops it.
  std::string out = RunText(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A) .\n"
      "deposit(x)@2 .",
      Window(0, 5));
  EXPECT_NE(out.find("open(x)@{[2,2] [3,3] [4,4] [5,5]}"), std::string::npos);
}

TEST(SemiNaiveTest, StratifiedNegationAcrossStrata) {
  std::string out = RunText(
      "a(X) :- base(X) .\n"
      "b(X) :- base(X), not a(X) .\n"
      "c(X) :- base2(X), not a(X) .\n"
      "base(x)@[0,5] . base2(x)@[3,8] .");
  EXPECT_EQ(out.find("b(x)"), std::string::npos);
  EXPECT_NE(out.find("c(x)@{(5,8]}"), std::string::npos);
}

TEST(SemiNaiveTest, AggregationFeedsRecursion) {
  // The contract's event->skew shape: aggregate once, then chain.
  std::string out = RunText(
      "event(msum(S)) :- c(A, S) .\n"
      "skew(K) :- diamondminus skew(K), not event(_) .\n"
      "skew(K) :- diamondminus skew(X), event(S), K = X + S .\n"
      "skew(10.0)@0 . c(a, 2.0)@3 . c(b, 3.0)@3 . c(a, -1.0)@5 .",
      Window(0, 6));
  EXPECT_NE(out.find("skew(10)@{[0,0] [1,1] [2,2]}"), std::string::npos);
  EXPECT_NE(out.find("skew(15)@{[3,3] [4,4]}"), std::string::npos);
  EXPECT_NE(out.find("skew(14)@{[5,5] [6,6]}"), std::string::npos);
}

TEST(SemiNaiveTest, NaiveAndSemiNaiveAgree) {
  const char* text =
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, a)@[4,6] .\n"
      "deposit(x)@1 . close(x)@9 .";
  EngineOptions seminaive = Window(0, 12);
  EngineOptions naive = Window(0, 12);
  naive.naive_evaluation = true;
  naive.enable_chain_acceleration = false;
  EXPECT_EQ(RunText(text, seminaive), RunText(text, naive));
}

TEST(SemiNaiveTest, AccelerationOnAndOffAgree) {
  const char* text =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "margin(A, M) :- deposit2(A, M) .\n"
      "margin(A, M) :- diamondminus margin(A, M), not change(A), open(A) .\n"
      "deposit(x)@1 . deposit2(x, 5.0)@1 . change(x)@4 . close(x)@7 .\n"
      "deposit(y)@2 . deposit2(y, 9.0)@2 . close(y)@11 .";
  EngineOptions on = Window(0, 12);
  EngineOptions off = Window(0, 12);
  off.enable_chain_acceleration = false;
  EngineStats stats_on;
  EngineStats stats_off;
  EXPECT_EQ(RunText(text, on, &stats_on), RunText(text, off, &stats_off));
  EXPECT_GT(stats_on.chain_extensions, 0u);
  EXPECT_EQ(stats_off.chain_extensions, 0u);
}

TEST(SemiNaiveTest, MaxIntervalsBudget) {
  auto unit = Parser::Parse(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A) .\n"
      "deposit(x)@0 .");
  EngineOptions options = Window(0, 1'000'000);
  options.max_intervals = 1000;
  Database db = unit->database;
  Status status = Materialize(unit->program, &db, options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(SemiNaiveTest, InvalidProgramsRejectedUpfront) {
  auto unsafe = Parser::Parse("p(X, Y) :- q(X) .\n q(a)@1 .");
  Database db1 = unsafe->database;
  EXPECT_EQ(Materialize(unsafe->program, &db1).code(),
            StatusCode::kUnsafeRule);

  auto unstrat = Parser::Parse(
      "p(X) :- b(X), not q(X) .\n"
      "q(X) :- b(X), not p(X) .\n b(a)@1 .");
  Database db2 = unstrat->database;
  EXPECT_EQ(Materialize(unstrat->program, &db2).code(),
            StatusCode::kNotStratifiable);

  auto bad_window = Parser::Parse("p(X) :- q(X) .\n q(a)@1 .");
  EngineOptions options = Window(10, 5);
  Database db3 = bad_window->database;
  EXPECT_EQ(Materialize(bad_window->program, &db3, options).code(),
            StatusCode::kInvalidArgument);
}

TEST(SemiNaiveTest, StatsPopulated) {
  EngineStats stats;
  RunText("q(X) :- p(X) .\n p(a)@[1,3] .", EngineOptions{}, &stats);
  EXPECT_GE(stats.num_strata, 1);
  EXPECT_GE(stats.rule_evaluations, 1u);
  EXPECT_EQ(stats.derived_intervals, 1u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_NE(stats.ToString().find("derived_intervals=1"), std::string::npos);
}

TEST(SemiNaiveTest, RuleCompileStatsAndOptOut) {
  if (std::getenv("DMTL_DISABLE_RULE_COMPILE") != nullptr) {
    GTEST_SKIP() << "rule compilation disabled by environment";
  }
  const char* text =
      "q(X) :- p(X) .\n"
      "q(X) :- boxminus[1,1] q(X), not s(X) .\n"
      "p(a)@1 . s(a)@6 .";
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);

  EngineStats compiled;
  std::string with_vm = RunText(text, options, &compiled);
  EXPECT_GE(compiled.compiled_rules, 2u);
  EXPECT_GE(compiled.vm_dispatches, 1u);
  EXPECT_GE(compiled.vm_recompiles, 1u);
  EXPECT_EQ(compiled.vm_fallbacks, 0u);
  EXPECT_NE(compiled.ToString().find("compiled_rules="), std::string::npos);

  EngineOptions off = options;
  off.enable_rule_compile = false;
  EngineStats interpreted;
  std::string without_vm = RunText(text, off, &interpreted);
  EXPECT_EQ(interpreted.compiled_rules, 0u);
  EXPECT_EQ(interpreted.vm_dispatches, 0u);
  EXPECT_EQ(with_vm, without_vm);
}

TEST(SemiNaiveTest, MonotoneInsertOnlySemantics) {
  // Re-running materialization on an already-materialized database is a
  // no-op (the chase is monotone and idempotent).
  auto unit = Parser::Parse(
      "q(X) :- p(X) .\n r(X) :- q(X), not s(X) .\n p(a)@[1,3] . s(a)@2 .");
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db).ok());
  std::string first = db.ToString();
  ASSERT_TRUE(Materialize(unit->program, &db).ok());
  EXPECT_EQ(db.ToString(), first);
}

// --- chase counters, pinned -------------------------------------------------
// Exact counter values and the (rule, round) shape of the provenance log
// for two fixed runs. The chase is deterministic at one thread, so any
// change here means the driver evaluates a different sequence of rules or
// rounds - which a refactor of the stratum/round loop must not do.

struct ChaseCounters {
  size_t rounds = 0;
  size_t rule_evaluations = 0;
  size_t derived_intervals = 0;
  size_t chain_extensions = 0;
  uint64_t memo_refreshes = 0;
  size_t memo_intersections = 0;
  // "rule@round:count" for every (rule_index, round) pair in the
  // provenance log, in ascending order.
  std::string provenance;
};

ChaseCounters RunCounted(const Program& program, Database db,
                         EngineOptions options) {
  std::vector<DerivationRecord> records;
  options.provenance = &records;
  EngineStats stats;
  Status status = Materialize(program, &db, options, &stats);
  EXPECT_TRUE(status.ok()) << status;
  ChaseCounters out;
  out.rounds = stats.rounds;
  out.rule_evaluations = stats.rule_evaluations;
  out.derived_intervals = stats.derived_intervals;
  out.chain_extensions = stats.chain_extensions;
  out.memo_refreshes = stats.memo_refreshes;
  out.memo_intersections = stats.memo_intersections;
  std::map<std::pair<size_t, size_t>, size_t> shape;
  for (const DerivationRecord& r : records) ++shape[{r.rule_index, r.round}];
  std::ostringstream text;
  for (const auto& [key, count] : shape) {
    text << key.first << "@" << key.second << ":" << count << " ";
  }
  out.provenance = text.str();
  return out;
}

TEST(SemiNaiveTest, EthPerpChaseCountersPinned) {
  WorkloadConfig config;
  config.name = "pinned";
  config.num_events = 24;
  config.num_trades = 5;
  config.duration_s = 600;
  config.seed = 5;
  auto session = GenerateSession(config);
  ASSERT_TRUE(session.ok()) << session.status();
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  ChaseCounters c = RunCounted(*program, SessionToDatabase(*session),
                               SessionEngineOptions(*session));
  EXPECT_EQ(c.rounds, 112u);
  EXPECT_EQ(c.rule_evaluations, 1678u);
  EXPECT_EQ(c.derived_intervals, 12529u);
  EXPECT_EQ(c.chain_extensions, 24251u);
  // The AST walker memoizes fewer operator paths than the compiled VM.
  // Both counters follow the join order, so a planner change moves them.
  const bool compiled = EngineOptions::FromEnv().enable_rule_compile;
  EXPECT_EQ(c.memo_refreshes, compiled ? 138u : 126u);
  EXPECT_EQ(c.memo_intersections, compiled ? 565u : 351u);
  EXPECT_EQ(c.provenance,
      "0@0:1 1@0:1 1@1:598 2@0:5 3@0:5 3@1:2269 4@0:4 5@0:4 6@0:5 7@0:5 "
      "8@0:4 8@1:1152 8@25:255 8@31:401 8@37:57 8@39:264 8@41:136 9@38:1 "
      "10@24:1 10@30:1 10@36:1 10@38:1 10@40:1 11@0:4 12@0:10 13@0:5 14@0:4 "
      "14@1:1439 14@3:586 14@5:173 14@7:58 15@2:5 15@4:3 15@6:2 16@0:5 "
      "17@4:2 17@6:1 17@8:2 18@0:5 19@0:4 20@0:10 21@4:2 21@6:1 21@8:2 "
      "22@0:24 23@0:1 23@1:8 23@3:4 23@5:9 23@7:1 23@9:31 23@11:1 23@13:21 "
      "23@15:6 23@17:10 23@19:43 23@21:4 23@23:32 23@25:1 23@27:10 23@29:146 "
      "23@31:24 23@33:37 23@35:24 23@37:28 23@39:3 23@41:113 23@43:4 "
      "23@45:13 23@48:1 24@2:1 24@4:1 24@6:1 24@8:1 24@10:1 24@12:1 24@14:1 "
      "24@16:1 24@18:1 24@20:1 24@22:1 24@24:1 24@26:1 24@28:1 24@30:1 "
      "24@32:1 24@34:1 24@36:1 24@38:1 24@40:1 24@42:1 24@44:1 24@46:1 "
      "24@47:1 25@0:1 26@0:1 26@1:8 26@3:4 26@5:9 26@7:1 26@9:31 26@11:1 "
      "26@13:21 26@15:6 26@17:10 26@19:43 26@21:4 26@23:32 26@25:1 26@27:10 "
      "26@29:146 26@31:24 26@33:37 26@35:24 26@37:28 26@39:3 26@41:113 "
      "26@43:4 26@45:13 26@48:1 27@2:1 27@4:1 27@6:1 27@8:1 27@10:1 27@12:1 "
      "27@14:1 27@16:1 27@18:1 27@20:1 27@22:1 27@24:1 27@26:1 27@28:1 "
      "27@30:1 27@32:1 27@34:1 27@36:1 27@38:1 27@40:1 27@42:1 27@44:1 "
      "27@46:1 27@47:1 28@3:1 28@5:1 28@7:1 28@9:1 28@11:1 28@13:1 28@15:1 "
      "28@17:1 28@19:1 28@21:1 28@23:1 28@25:1 28@27:1 28@29:1 28@31:1 "
      "28@33:1 28@35:1 28@37:1 28@39:1 28@41:1 28@43:1 28@45:1 28@47:1 "
      "28@48:1 29@2:1 29@4:1 29@6:1 29@8:1 29@10:1 29@12:1 29@14:1 29@16:1 "
      "29@18:1 29@20:1 29@22:1 29@24:1 29@26:1 29@28:1 29@30:1 29@32:1 "
      "29@34:1 29@36:1 29@38:1 29@40:1 29@42:1 29@44:1 29@46:1 29@47:1 "
      "32@3:1 32@5:1 32@7:1 32@9:1 32@11:1 32@13:1 32@15:1 32@17:1 32@19:1 "
      "32@21:1 32@23:1 32@25:1 32@27:1 32@29:1 32@31:1 32@33:1 32@35:1 "
      "32@37:1 32@39:1 32@41:1 32@43:1 32@45:1 32@47:1 32@48:1 33@4:1 33@6:1 "
      "33@8:1 33@10:1 33@12:1 33@14:1 33@16:1 33@18:1 33@20:1 33@22:1 "
      "33@24:1 33@26:1 33@28:1 33@30:1 33@32:1 33@34:1 33@36:1 33@38:1 "
      "33@40:1 33@42:1 33@44:1 33@46:1 33@48:1 33@49:1 34@0:1 34@1:8 34@3:4 "
      "34@5:9 34@7:1 34@9:31 34@11:1 34@13:21 34@15:6 34@17:10 34@19:43 "
      "34@21:4 34@23:32 34@25:1 34@27:10 34@29:146 34@31:24 34@33:37 "
      "34@35:24 34@37:28 34@39:3 34@41:113 34@43:4 34@45:13 34@48:1 35@2:1 "
      "35@4:1 35@6:1 35@8:1 35@10:1 35@12:1 35@14:1 35@16:1 35@18:1 35@20:1 "
      "35@22:1 35@24:1 35@26:1 35@28:1 35@30:1 35@32:1 35@34:1 35@36:1 "
      "35@38:1 35@40:1 35@42:1 35@44:1 35@46:1 35@47:1 36@11:1 36@13:1 "
      "36@21:1 36@25:1 36@33:1 37@12:23 37@14:28 37@16:17 37@18:94 37@20:48 "
      "37@22:285 37@26:159 37@28:10 37@32:62 37@34:91 38@15:1 38@17:1 "
      "38@19:1 38@27:1 38@31:1 39@23:1 39@29:1 39@35:1 39@37:1 39@39:1 "
      "40@0:4 41@0:4 41@1:1439 41@12:23 41@14:28 41@16:17 41@18:94 41@20:48 "
      "41@22:285 41@26:159 41@28:10 41@32:62 41@34:91 42@11:1 42@13:1 "
      "42@15:1 42@21:1 43@33:1 44@17:1 44@19:1 44@25:1 44@27:1 45@31:1 "
      "47@35:1 49@23:1 49@37:1 50@29:1 50@39:1 52@0:5 ");
}

TEST(SemiNaiveTest, RecursionChaseCountersPinned) {
  auto unit = Parser::Parse(
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus[1,1] open(A), not close(A) .\n"
      "bal(A, M) :- tranM(A, M), open(A) .\n"
      "bal(A, M) :- diamondminus[1,1] bal(A, M), open(A), not tranM(A, _) .\n"
      "total(msum(M)) :- bal(A, M) .\n"
      "busy(A) :- diamondminus[0,2] reach(A, _), boxminus[0,1] open(A) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, a)@[4,6] .\n"
      "edge(c, d)@5 . deposit(a)@1 . deposit(b)@3 . close(a)@9 .\n"
      "tranM(a, 5.0)@2 . tranM(b, 7.0)@4 . tranM(a, 3.0)@6 .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ChaseCounters c = RunCounted(unit->program, unit->database, Window(0, 20));
  EXPECT_EQ(c.rounds, 20u);
  EXPECT_EQ(c.rule_evaluations, 50u);
  EXPECT_EQ(c.derived_intervals, 81u);
  EXPECT_EQ(c.chain_extensions, 44u);
  EXPECT_EQ(c.memo_refreshes, 27u);
  EXPECT_EQ(c.provenance,
      "0@0:4 1@0:4 1@1:4 2@0:2 3@0:2 3@1:22 4@0:2 4@2:1 5@1:2 5@2:3 5@3:3 "
      "5@4:1 5@5:1 5@6:1 5@7:1 5@8:1 5@9:1 5@10:1 5@11:1 5@12:1 5@13:1 "
      "5@14:1 5@15:1 5@16:1 6@0:19 ");
}

}  // namespace
}  // namespace dmtl
