#include "src/storage/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

namespace dmtl {
namespace {

// A scratch file path unique to the running test and process, so parallel
// ctest workers never race on a shared name.
std::string ScratchPath(const std::string& suffix) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("dmtl_serialize_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           "_" + std::to_string(getpid()) + suffix))
      .string();
}

TEST(SerializeTest, RendersParseableFacts) {
  Database db;
  db.Insert("price", {Value::Double(1301.5)},
            Interval::ClosedOpen(Rational(100), Rational(160)));
  db.Insert("tranM", {Value::Symbol("acc1"), Value::Double(20.0)},
            Interval::Point(Rational(105)));
  std::string text = SerializeDatabase(db);
  EXPECT_EQ(text,
            "price(1301.5)@[100, 160) .\n"
            "tranM(acc1, 20.0)@[105, 105] .\n");
}

TEST(SerializeTest, RoundTripsAllValueKinds) {
  Database db;
  db.Insert("v", {Value::Int(7)}, Interval::Point(Rational(1)));
  db.Insert("v", {Value::Double(0.1)}, Interval::Point(Rational(2)));
  db.Insert("v", {Value::Symbol("plain_sym")}, Interval::Point(Rational(3)));
  db.Insert("v", {Value::Symbol("Needs Quoting!")},
            Interval::Point(Rational(4)));
  db.Insert("v", {Value::Bool(true)}, Interval::Point(Rational(5)));
  db.Insert("v", {Value::Bool(false)}, Interval::Point(Rational(6)));
  db.Insert("w", {}, Interval::All());
  db.Insert("x", {Value::Int(-3)},
            Interval::OpenClosed(Rational(-5, 2), Rational(7)));

  auto parsed = Parser::ParseDatabase(SerializeDatabase(db));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeDatabase(*parsed), SerializeDatabase(db));
  // Exact double round trip.
  EXPECT_TRUE(parsed->Holds("v", {Value::Double(0.1)}, Rational(2)));
  EXPECT_TRUE(parsed->Holds("v", {Value::Bool(true)}, Rational(5)));
  EXPECT_TRUE(
      parsed->Holds("v", {Value::Symbol("Needs Quoting!")}, Rational(4)));
  EXPECT_TRUE(parsed->Holds("w", {}, Rational(1'000'000)));
}

TEST(SerializeTest, DeterministicOrdering) {
  Database a;
  a.Insert("p", {Value::Int(2)}, Interval::Point(Rational(1)));
  a.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  Database b;
  b.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  b.Insert("p", {Value::Int(2)}, Interval::Point(Rational(1)));
  EXPECT_EQ(SerializeDatabase(a), SerializeDatabase(b));
}

TEST(SerializeTest, ReadFactLineReadsTheCanonicalLine) {
  auto fact = ReadFactLine("tranM(acc1, 20.0, \"Q q\", -3)@(-7/2, inf) .");
  ASSERT_TRUE(fact.ok()) << fact.status();
  EXPECT_EQ(fact->predicate, InternPredicate("tranM"));
  EXPECT_EQ(fact->args, (Tuple{Value::Symbol("acc1"), Value::Double(20.0),
                               Value::Symbol("Q q"), Value::Int(-3)}));
  EXPECT_EQ(fact->interval,
            *Interval::Make(Bound::Open(Rational(-7, 2)), Bound::Infinite()));
  EXPECT_EQ(SerializeFactLine(fact->predicate, fact->args, fact->interval),
            "tranM(acc1, 20.0, \"Q q\", -3)@(-7/2, inf) .");
}

TEST(SerializeTest, ReadFactLineRejectsAnythingElse) {
  // Source syntax the parser accepts but the writer never emits, and
  // malformed or out-of-range lines: all ParseErrors, none thrown.
  const char* lines[] = {
      "",
      "p(1)@[1,2] .",
      "p(1)@[1, 2].",
      "p(1)@[1, 2] . ",
      "p(1)@[1, 2] .\n",
      " p(1)@[1, 2] .",
      "p(1)@1 .",
      "p(1) .",
      "p(1)@[1, 2] . % comment",
      "p( 1)@[1, 2] .",
      "p(1,2)@[1, 2] .",
      "p(1)@[2, 1] .",
      "p(1)@[1, 1) .",
      "p(1)@[inf, 2] .",
      "p(1)@[1, -inf] .",
      "p(1)@[1/0, 2] .",
      "p(1)@[1/-2, 2] .",
      "p(1)@[2.5, 3] .",
      "p(1)@[+1, 2] .",
      "p(1)@[99999999999999999999, 2] .",
      "p(1e999)@[1, 2] .",
      "p(99999999999999999999)@[1, 2] .",
      "p(+1)@[1, 2] .",
      "p(- 1)@[1, 2] .",
      "p(1e)@[1, 2] .",
      "p(X)@[1, 2] .",
      "p(\"open)@[1, 2] .",
      "P(1)@[1, 2] .",
      "p@[1, 2] .",
      "p(1)",
  };
  for (const char* line : lines) {
    Result<Fact> fact = Status::Internal("unset");
    ASSERT_NO_THROW(fact = ReadFactLine(line)) << line;
    EXPECT_FALSE(fact.ok()) << "accepted: " << line;
    EXPECT_EQ(fact.status().code(), StatusCode::kParseError) << line;
    EXPECT_NE(fact.status().message().find("column"), std::string::npos)
        << fact.status();
  }
}

TEST(SerializeTest, ReadDatabaseTextInsertsEveryLine) {
  Database db;
  db.Insert("price", {Value::Double(1301.5)},
            Interval::ClosedOpen(Rational(100), Rational(160)));
  db.Insert("price", {Value::Double(1301.5)},
            Interval::ClosedOpen(Rational(200), Rational(260)));
  db.Insert("w", {}, Interval::All());
  const std::string text = SerializeDatabase(db);
  Database back;
  ASSERT_TRUE(ReadDatabaseText(text, &back).ok());
  EXPECT_EQ(SerializeDatabase(back), text);
  EXPECT_TRUE(ReadDatabaseText("", &back).ok());
  Database partial;
  EXPECT_FALSE(ReadDatabaseText("w()@(-inf, inf) .", &partial).ok());
  EXPECT_FALSE(ReadDatabaseText("w()@(-inf, inf) .\n\n", &partial).ok());
}

TEST(SerializeTest, FileRoundTrip) {
  Database db;
  db.Insert("margin", {Value::Symbol("acc"), Value::Double(97.5)},
            Interval::Closed(Rational(1), Rational(9)));
  std::string path = ScratchPath(".dmtl");
  ASSERT_TRUE(WriteDatabaseFile(db, path).ok());
  auto loaded = ReadDatabaseFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeDatabase(*loaded), SerializeDatabase(db));
  std::remove(path.c_str());
}

TEST(SerializeTest, ReadSourceFileReportsErrors) {
  EXPECT_FALSE(ReadDatabaseFile("/nonexistent/nope.dmtl").ok());
  std::string path = ScratchPath(".dmtl");
  {
    std::ofstream f(path);
    f << "p(a)@5";  // missing dot
  }
  auto result = ReadSourceFile(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, ProgramArtifactFileParses) {
  // The shipped programs/eth_perp.dmtl must stay parseable; the content
  // equality with the builder is covered in risk_rules/eth_perp tests.
  auto source = ReadSourceFile("programs/eth_perp.dmtl");
  if (!source.ok()) {
    GTEST_SKIP() << "artifact not found (test run outside repo root)";
  }
  EXPECT_GE(source->program.size(), 40u);
}

}  // namespace
}  // namespace dmtl
