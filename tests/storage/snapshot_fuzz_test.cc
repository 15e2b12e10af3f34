// Seeded mutation fuzz of the snapshot decoder: byte flips, truncations
// and line duplications of encoded fleet and unit snapshots. Every input
// must come back from DecodeSnapshot as a value or a Status - never an
// exception or a crash - and every decode that succeeds must restore to a
// session or fail with a Status. A successful decode also re-encodes to a
// fixed point: Encode(Decode(Encode(d))) == Encode(d).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/session.h"
#include "src/fleet/workload.h"
#include "src/parser/parser.h"
#include "src/storage/snapshot.h"
#include "src/validation/parallel_sessions.h"

namespace dmtl {
namespace {

struct FuzzTarget {
  Program program;
  SessionOptions options;
  std::string encoded;
};

Status Apply(EngineSession* s, const FleetOp& op) {
  switch (op.kind) {
    case FleetOp::Kind::kPush:
      return s->Push(op.fact);
    case FleetOp::Kind::kStep:
      return s->PushStep(op.predicate, op.args, op.t);
    case FleetOp::Kind::kAdvance:
      return s->Advance(op.t);
    case FleetOp::Kind::kSlide:
      return s->Slide(op.t);
  }
  return Status::Internal("unknown op");
}

// Runs `ops[0, cut)` through a fresh session and encodes its checkpoint.
FuzzTarget MakeTarget(const Program& program, const SessionOptions& options,
                      const std::vector<FleetOp>& ops, size_t cut) {
  FuzzTarget target{program, options, ""};
  auto s = EngineSession::Create(program, options);
  EXPECT_TRUE(s.ok()) << s.status();
  if (!s.ok()) return target;
  for (size_t i = 0; i < cut; ++i) {
    Status st = Apply(s->get(), ops[i]);
    EXPECT_TRUE(st.ok()) << st;
  }
  auto snap = (*s)->Snapshot();
  EXPECT_TRUE(snap.ok()) << snap.status();
  if (snap.ok()) target.encoded = EncodeSnapshot(*snap);
  return target;
}

// A mid-stream ETH-PERP fleet shard: step channels, an input log, a
// derived database and provenance.
FuzzTarget FleetShardTarget() {
  auto program = EthPerpProgram();
  EXPECT_TRUE(program.ok()) << program.status();
  WorkloadConfig base;
  base.name = "fleet";
  base.duration_s = 600;
  base.num_events = 4;
  base.num_trades = 1;
  base.price.update_interval_s = 150;
  auto session = GenerateSession(ShardConfigs(base, 1).front());
  EXPECT_TRUE(session.ok()) << session.status();
  SessionOptions options;
  options.start_time = Rational(session->start_time);
  std::vector<FleetOp> ops = SessionToOps(*session);
  return MakeTarget(*program, options, ops, ops.size() / 2);
}

// A small sliding-window session, snapshotted after retraction.
FuzzTarget SlidingTarget() {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n");
  EXPECT_TRUE(unit.ok()) << unit.status();
  std::vector<FleetOp> ops;
  for (int t = 1; t <= 8; ++t) {
    ops.push_back(FleetOp::Push(
        Fact::Make("p", {Value::Symbol(t % 2 == 0 ? "a" : "Acc b")},
                   Interval::ClosedOpen(Rational(t), Rational(2 * t + 1, 2)))));
    ops.push_back(FleetOp::Push(Fact::Make("v", {Value::Double(t / 4.0)},
                                           Interval::Point(Rational(t)))));
    ops.push_back(FleetOp::Step(InternPredicate("price"),
                                {Value::Int(-t), Value::Bool(t % 3 == 0)},
                                Rational(t)));
    ops.push_back(FleetOp::Advance(Rational(t)));
  }
  SessionOptions options;
  options.start_time = Rational(0);
  options.horizon = Rational(3);
  return MakeTarget(unit->program, options, ops, ops.size());
}

// Bytes a flip writes: every token boundary of the format, plus noise.
constexpr char kPalette[] = "0123456789-/.e+ ,()[]@\"\n\r\tazAZ_%\0\xff";

std::string Mutate(std::string text, std::mt19937_64* rng) {
  if (text.empty()) return text;
  switch ((*rng)() % 3) {
    case 0: {  // byte flips
      const int flips = 1 + static_cast<int>((*rng)() % 4);
      for (int i = 0; i < flips; ++i) {
        const size_t pos = (*rng)() % text.size();
        text[pos] = (*rng)() % 2 == 0
                        ? kPalette[(*rng)() % (sizeof(kPalette) - 1)]
                        : static_cast<char>(text[pos] ^ (1 << ((*rng)() % 8)));
      }
      return text;
    }
    case 1:  // truncation
      return text.substr(0, (*rng)() % text.size());
    default: {  // line duplication
      std::vector<size_t> starts = {0};
      for (size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n') starts.push_back(i + 1);
      }
      const size_t start = starts[(*rng)() % starts.size()];
      size_t end = text.find('\n', start);
      end = end == std::string::npos ? text.size() : end + 1;
      text.insert(end, text.substr(start, end - start));
      return text;
    }
  }
}

void Fuzz(const FuzzTarget& target, int iterations, uint64_t seed) {
  ASSERT_FALSE(target.encoded.empty());
  {
    auto clean = DecodeSnapshot(target.encoded);
    ASSERT_TRUE(clean.ok()) << clean.status();
  }
  std::mt19937_64 rng(seed);
  int rejected = 0;
  int restored = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string input = Mutate(target.encoded, &rng);
    Result<SessionSnapshot> decoded = Status::Internal("unset");
    ASSERT_NO_THROW(decoded = DecodeSnapshot(input)) << "iteration " << i;
    if (!decoded.ok()) {
      const StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << decoded.status();
      ++rejected;
      continue;
    }
    const std::string again = EncodeSnapshot(*decoded);
    auto redecoded = DecodeSnapshot(again);
    ASSERT_TRUE(redecoded.ok()) << "iteration " << i << ": "
                                << redecoded.status();
    EXPECT_EQ(EncodeSnapshot(*redecoded), again) << "iteration " << i;

    Result<std::unique_ptr<EngineSession>> session =
        Status::Internal("unset");
    ASSERT_NO_THROW(session = EngineSession::Restore(
                        target.program, target.options, *decoded))
        << "iteration " << i;
    if (!session.ok()) continue;
    ++restored;
    Status st;
    ASSERT_NO_THROW(st = (*session)->Snapshot().status()) << "iteration " << i;
  }
  // Neither vacuous direction: some mutants are refused, some survive.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
}

TEST(SnapshotFuzzTest, FleetShardMutantsYieldStatuses) {
  Fuzz(FleetShardTarget(), /*iterations=*/80, /*seed=*/20261017);
}

TEST(SnapshotFuzzTest, SlidingSessionMutantsYieldStatuses) {
  Fuzz(SlidingTarget(), /*iterations=*/600, /*seed=*/7);
}

}  // namespace
}  // namespace dmtl
