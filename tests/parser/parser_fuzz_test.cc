// Seeded mutation fuzz of the parser: byte flips, truncations and line
// duplications of the ETH-PERP program text and of a fact file rendered
// from a generated trading session. Every input must come back from Parser
// as a value or a Status - never an exception or a crash - and a refusal
// must be a parse-time Status. An accepted mutant must also print: the
// parsed rules and facts are walked through ToString.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"

namespace dmtl {
namespace {

// A short ETH-PERP session as a fact file, plus hand-written lines for the
// bound shapes a session never produces (open, rational, half-infinite).
std::string FactFileText() {
  WorkloadConfig config;
  config.name = "parser-fuzz";
  config.duration_s = 600;
  config.num_events = 6;
  config.num_trades = 1;
  config.price.update_interval_s = 150;
  auto session = GenerateSession(config);
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return "";
  return SerializeDatabase(SessionToDatabase(*session)) +
         "p(a, 1.5, \"quoted sym\")@(1/2, 3] .\n"
         "q(-7)@[0, inf) .\n"
         "r(b)@(-inf, 4) .\n";
}

// Bytes a flip writes: every token boundary of the syntax, plus noise.
constexpr char kPalette[] =
    "0123456789-/.e+ ,()[]{}@:=<>!\"'%\n\r\tazAZ_\0\xff";

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

// Which entry point a mutant goes through.
enum class Entry { kUnit, kProgram, kDatabase };

// Parses `input` through `entry`; true iff it was accepted.
bool ParseOnce(Entry entry, const std::string& input, int iteration) {
  Status status;
  switch (entry) {
    case Entry::kUnit: {
      Result<Parser::ParsedUnit> unit = Status::Internal("unset");
      EXPECT_NO_THROW(unit = Parser::Parse(input)) << "iteration " << iteration;
      if (unit.ok()) {
        EXPECT_NO_THROW(unit->program.ToString());
        EXPECT_NO_THROW(unit->database.ToString());
        return true;
      }
      status = unit.status();
      break;
    }
    case Entry::kProgram: {
      Result<Program> program = Status::Internal("unset");
      EXPECT_NO_THROW(program = Parser::ParseProgram(input))
          << "iteration " << iteration;
      if (program.ok()) {
        EXPECT_NO_THROW(program->ToString());
        return true;
      }
      status = program.status();
      break;
    }
    case Entry::kDatabase: {
      Result<Database> db = Status::Internal("unset");
      EXPECT_NO_THROW(db = Parser::ParseDatabase(input))
          << "iteration " << iteration;
      if (db.ok()) {
        EXPECT_NO_THROW(db->ToString());
        return true;
      }
      status = db.status();
      break;
    }
  }
  const StatusCode code = status.code();
  EXPECT_TRUE(code == StatusCode::kParseError ||
              code == StatusCode::kInvalidArgument)
      << "iteration " << iteration << ": " << status;
  return false;
}

void Fuzz(const std::string& text, Entry entry, int iterations,
          uint64_t seed) {
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(ParseOnce(entry, text, -1)) << "the clean input must parse";
  std::mt19937_64 rng(seed);
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < iterations; ++i) {
    if (ParseOnce(entry, Mutate(text, &rng), i)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Neither vacuous direction: some mutants are refused, some survive.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

TEST(ParserFuzzTest, EthPerpProgramMutantsYieldStatuses) {
  Fuzz(EthPerpProgramText(), Entry::kProgram, /*iterations=*/300,
       /*seed=*/20261019);
}

TEST(ParserFuzzTest, FactFileMutantsYieldStatuses) {
  Fuzz(FactFileText(), Entry::kDatabase, /*iterations=*/400, /*seed=*/11);
}

TEST(ParserFuzzTest, ProgramPlusFactsMutantsYieldStatuses) {
  Fuzz(EthPerpProgramText() + FactFileText(), Entry::kUnit,
       /*iterations=*/200, /*seed=*/5);
}

}  // namespace
}  // namespace dmtl
