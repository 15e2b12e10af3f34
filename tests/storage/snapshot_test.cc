// Snapshot codec contract: EncodeSnapshot/DecodeSnapshot round-trip every
// field bit-exactly, refuse foreign or future inputs loudly, and the file
// wrappers behave like the in-memory codec.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/parser/parser.h"
#include "src/storage/snapshot.h"

namespace dmtl {
namespace {

Program TestProgram() {
  auto unit = Parser::Parse("q(X) :- diamondminus[0,2] p(X) .\n");
  EXPECT_TRUE(unit.ok()) << unit.status();
  return unit->program;
}

SessionSnapshot TestSnapshot(const Program& program) {
  SessionSnapshot snap;
  snap.program_fingerprint = ProgramFingerprint(program);
  snap.watermark = Rational(7, 2);
  snap.window_min = Rational(-3);
  snap.horizon = Rational(10);
  snap.advanced = true;
  snap.track_provenance = true;
  snap.channels.push_back(SessionSnapshot::Channel{
      InternPredicate("price"), {Value::Double(1310.5)}, Rational(3)});
  snap.input_log.push_back(Fact::Make(
      "p", {Value::Symbol("a")}, Interval::Closed(Rational(1), Rational(3))));
  snap.input_log.push_back(
      Fact::Make("p", {Value::Symbol("b")},
                 Interval::ClosedOpen(Rational(2), Rational(7, 2))));
  snap.database_text =
      "p(a)@[1, 3] .\np(b)@[2, 7/2) .\nq(a)@[1, 7/2] .\n";
  snap.provenance.push_back(DerivationRecord{
      InternPredicate("q"),
      {Value::Symbol("a")},
      Interval::Closed(Rational(1), Rational(3)),
      /*rule_index=*/0,
      /*round=*/1});
  return snap;
}

void ExpectSnapshotsEqual(const SessionSnapshot& a, const SessionSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.program_fingerprint, b.program_fingerprint);
  EXPECT_EQ(a.watermark, b.watermark);
  EXPECT_EQ(a.window_min, b.window_min);
  ASSERT_EQ(a.horizon.has_value(), b.horizon.has_value());
  if (a.horizon.has_value()) EXPECT_EQ(*a.horizon, *b.horizon);
  EXPECT_EQ(a.advanced, b.advanced);
  EXPECT_EQ(a.track_provenance, b.track_provenance);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].predicate, b.channels[i].predicate);
    EXPECT_EQ(a.channels[i].args, b.channels[i].args);
    EXPECT_EQ(a.channels[i].logged_hi, b.channels[i].logged_hi);
  }
  ASSERT_EQ(a.input_log.size(), b.input_log.size());
  for (size_t i = 0; i < a.input_log.size(); ++i) {
    EXPECT_EQ(a.input_log[i].predicate, b.input_log[i].predicate);
    EXPECT_EQ(a.input_log[i].args, b.input_log[i].args);
    EXPECT_EQ(a.input_log[i].interval.ToString(),
              b.input_log[i].interval.ToString());
  }
  EXPECT_EQ(a.database_text, b.database_text);
  ASSERT_EQ(a.provenance.size(), b.provenance.size());
  for (size_t i = 0; i < a.provenance.size(); ++i) {
    EXPECT_EQ(a.provenance[i].predicate, b.provenance[i].predicate);
    EXPECT_EQ(a.provenance[i].tuple, b.provenance[i].tuple);
    EXPECT_EQ(a.provenance[i].piece.ToString(),
              b.provenance[i].piece.ToString());
    EXPECT_EQ(a.provenance[i].rule_index, b.provenance[i].rule_index);
    EXPECT_EQ(a.provenance[i].round, b.provenance[i].round);
  }
}

TEST(SnapshotCodecTest, EncodeDecodeRoundTripsEveryField) {
  Program program = TestProgram();
  SessionSnapshot snap = TestSnapshot(program);
  std::string text = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
  // The codec is deterministic: re-encoding the decode is byte-identical.
  EXPECT_EQ(text, EncodeSnapshot(*decoded));
}

TEST(SnapshotCodecTest, MinimalSnapshotRoundTrips) {
  SessionSnapshot snap;
  snap.program_fingerprint = 1;
  snap.track_provenance = false;
  auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
}

TEST(SnapshotCodecTest, FingerprintIsStableAndProgramSensitive) {
  Program program = TestProgram();
  EXPECT_EQ(ProgramFingerprint(program), ProgramFingerprint(program));
  auto other = Parser::Parse("q(X) :- diamondminus[0,3] p(X) .\n");
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ProgramFingerprint(program), ProgramFingerprint(other->program));
}

TEST(SnapshotCodecTest, BadMagicIsParseError) {
  auto decoded = DecodeSnapshot("NOT-A-SNAPSHOT v1\n");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(SnapshotCodecTest, FutureVersionIsRefusedNotMisread) {
  SessionSnapshot snap;
  std::string text = EncodeSnapshot(snap);
  size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v2");
  auto decoded = DecodeSnapshot(text);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, CorruptDatabaseSectionIsRejected) {
  SessionSnapshot snap = TestSnapshot(TestProgram());
  snap.database_text = "this is not a fact line\n";
  auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
  EXPECT_FALSE(decoded.ok());
}

TEST(SnapshotCodecTest, OutOfRangeNumbersAreParseErrorsInEverySection) {
  const std::string encoded = EncodeSnapshot(TestSnapshot(TestProgram()));
  // The first line of each fact-shaped section: a channel, a log entry, a
  // db line, a provenance record. Numbers the parser used to throw on go
  // into its first time bound and in front of its first argument.
  for (const char* section : {"channels ", "log ", "db ", "prov "}) {
    const size_t header = encoded.find(std::string("\n") + section);
    ASSERT_NE(header, std::string::npos) << section;
    const size_t line = encoded.find('\n', header + 1) + 1;
    const size_t at = encoded.find('@', line);
    ASSERT_NE(at, std::string::npos) << section;
    for (const char* bad : {"1e999", "99999999999999999999"}) {
      std::string in_bound = encoded;
      in_bound.replace(at + 2, encoded.find(',', at) - at - 2, bad);
      std::string in_args = encoded;
      in_args.insert(encoded.find('(', line) + 1, std::string(bad) + ", ");
      for (const std::string& text : {in_bound, in_args}) {
        Status status;
        ASSERT_NO_THROW(status = DecodeSnapshot(text).status())
            << section << bad;
        EXPECT_EQ(status.code(), StatusCode::kParseError)
            << section << bad << ": " << status;
      }
    }
  }
}

TEST(SnapshotCodecTest, TruncatedInputIsRejected) {
  SessionSnapshot snap = TestSnapshot(TestProgram());
  std::string text = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(text.substr(0, text.size() / 2));
  EXPECT_FALSE(decoded.ok());
}

TEST(SnapshotCodecTest, FileRoundTrip) {
  Program program = TestProgram();
  SessionSnapshot snap = TestSnapshot(program);
  std::string path = ::testing::TempDir() + "/dmtl_snapshot_test.snap";
  ASSERT_TRUE(WriteSnapshotFile(snap, path).ok());
  auto decoded = ReadSnapshotFile(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

}  // namespace
}  // namespace dmtl
