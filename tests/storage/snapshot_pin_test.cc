// Pins the v1 text bytes of the snapshot codec and the database writer:
// the exact size and FNV-1a 64-bit hash of (a) a fixed ETH-PERP fleet
// shard's EncodeSnapshot/SerializeDatabase output after all its ops, with
// provenance on, and (b) a corpus of fact lines covering every value kind
// and bound shape the writer renders. Any change to the writer that moves
// a single byte fails here; the v1 format is a compatibility contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/session.h"
#include "src/fleet/workload.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"
#include "src/validation/parallel_sessions.h"

namespace dmtl {
namespace {

uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// One fact per writer case: plain and quoted symbols, the keyword values,
// int64 extremes, doubles that stress %.17g, negative rationals, infinite
// bounds, and every open/closed combination.
std::vector<Fact> CorpusFacts() {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const Interval at1 = Interval::Point(Rational(1));
  return {
      Fact::Make("sym", {Value::Symbol("acc1")}, at1),
      Fact::Make("sym", {Value::Symbol("plain_sym_2")}, at1),
      Fact::Make("sym", {Value::Symbol("Needs Quoting!")}, at1),
      Fact::Make("sym", {Value::Symbol("0x5aF3")}, at1),
      Fact::Make("sym", {Value::Symbol("with space")}, at1),
      Fact::Make("sym", {Value::Symbol("")}, at1),
      Fact::Make("sym", {Value::Symbol("_under")}, at1),
      Fact::Make("kw", {Value::Bool(true), Value::Bool(false), Value::Null()},
                 at1),
      Fact::Make("int", {Value::Int(0), Value::Int(-3), Value::Int(kMax)},
                 at1),
      Fact::Make("int", {Value::Int(kMin)}, at1),
      Fact::Make("dbl", {Value::Double(0.1)}, at1),
      Fact::Make("dbl", {Value::Double(20.0)}, at1),
      Fact::Make("dbl", {Value::Double(-0.0)}, at1),
      Fact::Make("dbl", {Value::Double(1e300)}, at1),
      Fact::Make("dbl", {Value::Double(5e-324)}, at1),
      Fact::Make("dbl", {Value::Double(-1301.25), Value::Double(2.5e-7)},
                 at1),
      Fact::Make("mixed", {Value::Symbol("acc1"), Value::Double(20.0),
                           Value::Int(7), Value::Symbol("Q q")},
                 Interval::ClosedOpen(Rational(1664272800),
                                      Rational(1664272860))),
      Fact::Make("zero", {}, Interval::All()),
      Fact::Make("iv", {Value::Int(1)},
                 Interval::Closed(Rational(-5, 2), Rational(7))),
      Fact::Make("iv", {Value::Int(2)},
                 Interval::Open(Rational(-7, 2), Rational(-1, 3))),
      Fact::Make("iv", {Value::Int(3)},
                 Interval::OpenClosed(Rational(-9), Rational(0))),
      Fact::Make("iv", {Value::Int(4)},
                 Interval::ClosedOpen(Rational(1, 3), Rational(kMax))),
      Fact::Make("iv", {Value::Int(5)}, Interval::AtLeast(Rational(3))),
      Fact::Make("iv", {Value::Int(6)},
                 *Interval::Make(Bound::Infinite(), Bound::Closed(Rational(5)))),
      Fact::Make("iv", {Value::Int(7)},
                 *Interval::Make(Bound::Open(Rational(-kMax)),
                                 Bound::Infinite())),
      Fact::Make("iv", {Value::Int(8)}, Interval::Point(Rational(-3, 7))),
  };
}

TEST(SnapshotPinTest, CorpusLinesAreByteStable) {
  std::string lines;
  Database db;
  for (const Fact& f : CorpusFacts()) {
    lines += SerializeFactLine(f.predicate, f.args, f.interval);
    lines += '\n';
    db.Insert(f);
  }
  EXPECT_EQ(lines.size(), 726u);
  EXPECT_EQ(Fnv1a(lines), 8950641306614337846ull) << lines;
  const std::string db_text = SerializeDatabase(db);
  EXPECT_EQ(db_text.size(), 726u);
  EXPECT_EQ(Fnv1a(db_text), 2308708885845916576ull) << db_text;
}

// The codec's reader agrees with the source parser on every corpus line,
// down to the sign of zero, and reads the database text back to the same
// database.
TEST(SnapshotPinTest, ReadFactLineMatchesParserOnCorpus) {
  Database db;
  for (const Fact& f : CorpusFacts()) {
    const std::string line = SerializeFactLine(f.predicate, f.args, f.interval);
    auto read = ReadFactLine(line);
    ASSERT_TRUE(read.ok()) << line << ": " << read.status();
    auto parsed = Parser::ParseDatabase(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status();
    const std::vector<Fact> oracle = parsed->FactsOf(PredicateName(f.predicate));
    ASSERT_EQ(oracle.size(), 1u) << line;
    EXPECT_EQ(read->predicate, oracle[0].predicate) << line;
    EXPECT_EQ(read->interval, oracle[0].interval) << line;
    ASSERT_EQ(read->args.size(), oracle[0].args.size()) << line;
    for (size_t i = 0; i < read->args.size(); ++i) {
      const Value& a = read->args[i];
      const Value& b = oracle[0].args[i];
      EXPECT_EQ(a, b) << line;
      if (a.is_double() && b.is_double()) {
        EXPECT_EQ(std::signbit(a.AsDouble()), std::signbit(b.AsDouble()))
            << line;
      }
    }
    // And both are the fact that was written.
    EXPECT_EQ(read->args, f.args) << line;
    EXPECT_EQ(read->interval, f.interval) << line;
    db.Insert(f);
  }
  const std::string text = SerializeDatabase(db);
  Database back;
  ASSERT_TRUE(ReadDatabaseText(text, &back).ok());
  EXPECT_EQ(SerializeDatabase(back), text);
  auto parsed = Parser::ParseDatabase(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeDatabase(*parsed), text);
}

TEST(SnapshotPinTest, FleetShardSnapshotIsByteStable) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  // The fleet benchmark's base session (bench/fleet.cc): a 10-minute
  // window with 4 orders, 1 trade and 4 oracle ticks; shard 0.
  WorkloadConfig base;
  base.name = "fleet";
  base.duration_s = 600;
  base.num_events = 4;
  base.num_trades = 1;
  base.price.update_interval_s = 150;
  auto session = GenerateSession(ShardConfigs(base, 1).front());
  ASSERT_TRUE(session.ok()) << session.status();

  SessionOptions options;
  options.start_time = Rational(session->start_time);
  options.track_provenance = true;
  auto s = EngineSession::Create(*program, options);
  ASSERT_TRUE(s.ok()) << s.status();
  for (const FleetOp& op : SessionToOps(*session)) {
    Status st;
    switch (op.kind) {
      case FleetOp::Kind::kPush:
        st = (*s)->Push(op.fact);
        break;
      case FleetOp::Kind::kStep:
        st = (*s)->PushStep(op.predicate, op.args, op.t);
        break;
      case FleetOp::Kind::kAdvance:
        st = (*s)->Advance(op.t);
        break;
      case FleetOp::Kind::kSlide:
        st = (*s)->Slide(op.t);
        break;
    }
    ASSERT_TRUE(st.ok()) << st;
  }
  auto snap = (*s)->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_FALSE(snap->provenance.empty());

  const std::string db_text = SerializeDatabase((*s)->db());
  EXPECT_EQ(db_text, snap->database_text);
  EXPECT_EQ(db_text.size(), 239798u);
  EXPECT_EQ(Fnv1a(db_text), 5319418725168559234ull);
  const std::string encoded = EncodeSnapshot(*snap);
  EXPECT_EQ(encoded.size(), 502864u);
  // The batch (cold-replay) shape attributes provenance to other rounds,
  // so its encoded bytes differ from the streaming shape's; both are pinned.
  const bool streaming = options.engine.WithEnvOverrides().enable_streaming;
  EXPECT_EQ(Fnv1a(encoded),
            streaming ? 6511765335967377351ull : 13095797012095177641ull);

  // The decoded snapshot restores to the same database and re-encodes to
  // the same bytes.
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EncodeSnapshot(*decoded), encoded);
  auto restored = EngineSession::Restore(*program, options, *decoded);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeDatabase((*restored)->db()), db_text);
}

}  // namespace
}  // namespace dmtl
