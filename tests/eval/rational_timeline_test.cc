// Programs whose time points are not integers: a fractional rule bound, a
// fractional fact endpoint and a fractional horizon. The timeline is Q, so
// these must be evaluated exactly like integral ones. Each case checks the
// extents the definitions give, and that semi-naive evaluation with and
// without chain acceleration and naive re-evaluation produce the same
// database at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <string>

#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

Database MaterializeWith(const Parser::ParsedUnit& unit,
                         const Rational& max_time, bool accel, bool naive,
                         int threads) {
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = max_time;
  options.enable_chain_acceleration = accel;
  options.naive_evaluation = naive;
  options.num_threads = threads;
  Database db = unit.database;
  Status status = Materialize(unit.program, &db, options);
  EXPECT_TRUE(status.ok()) << status;
  return db;
}

// Materializes `text` under every strategy and thread width, expects one
// database text throughout, and returns the reference materialization.
Database MaterializeAllWays(const std::string& text,
                            const Rational& max_time) {
  auto unit = Parser::Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return Database();
  Database reference = MaterializeWith(*unit, max_time, /*accel=*/true,
                                       /*naive=*/false, /*threads=*/1);
  const std::string expected = reference.ToString();
  for (int threads : {1, 2, 8}) {
    for (auto [accel, naive] : {std::pair{true, false}, std::pair{false, false},
                                std::pair{false, true}}) {
      EXPECT_EQ(MaterializeWith(*unit, max_time, accel, naive, threads)
                    .ToString(),
                expected)
          << "threads=" << threads << " accel=" << accel
          << " naive=" << naive << " on:\n"
          << text;
    }
  }
  return reference;
}

IntervalSet ExtentOf(const Database& db, std::string_view pred,
                     const char* constant) {
  const Relation* relation = db.Find(pred);
  if (relation == nullptr) return IntervalSet();
  const IntervalSet* extent = relation->Find({Value::Symbol(constant)});
  return extent == nullptr ? IntervalSet() : *extent;
}

TEST(RationalTimelineTest, FractionalRuleBound) {
  Database db = MaterializeAllWays(
      "q(X) :- diamondminus[0,3/2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n"
      "p(a)@[0,4] .\n"
      "p(b)@[2,6] .\n",
      Rational(10));
  EXPECT_EQ(ExtentOf(db, "q", "a"),
            IntervalSet(Interval::Closed(Rational(0), Rational(11, 2))));
  EXPECT_EQ(ExtentOf(db, "q", "b"),
            IntervalSet(Interval::Closed(Rational(2), Rational(15, 2))));
  // r holds one unit after q, wherever p does not.
  EXPECT_EQ(ExtentOf(db, "r", "a"),
            IntervalSet(Interval::OpenClosed(Rational(4), Rational(13, 2))));
  EXPECT_EQ(ExtentOf(db, "r", "b"),
            IntervalSet(Interval::OpenClosed(Rational(6), Rational(17, 2))));
}

TEST(RationalTimelineTest, FractionalFactEndpoint) {
  Database db = MaterializeAllWays(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "p(a)@[0,7/2] .\n"
      "p(b)@[2,6] .\n",
      Rational(10));
  EXPECT_EQ(ExtentOf(db, "q", "a"),
            IntervalSet(Interval::Closed(Rational(1), Rational(11, 2))));
  EXPECT_EQ(ExtentOf(db, "q", "b"),
            IntervalSet(Interval::Closed(Rational(3), Rational(8))));
}

TEST(RationalTimelineTest, FractionalHorizon) {
  Database db = MaterializeAllWays(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "s(X) :- p(X) .\n"
      "s(X) :- diamondminus[1,1] s(X) .\n"
      "p(a)@[0,4] .\n",
      Rational(19, 2));
  EXPECT_EQ(ExtentOf(db, "q", "a"),
            IntervalSet(Interval::Closed(Rational(1), Rational(6))));
  // The unit chain carries s forward from p up to the horizon itself.
  EXPECT_EQ(ExtentOf(db, "s", "a"),
            IntervalSet(Interval::Closed(Rational(0), Rational(19, 2))));
}

}  // namespace
}  // namespace dmtl
