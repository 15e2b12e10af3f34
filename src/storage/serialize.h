#ifndef DMTL_STORAGE_SERIALIZE_H_
#define DMTL_STORAGE_SERIALIZE_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/parser/parser.h"
#include "src/storage/database.h"

namespace dmtl {

// The canonical fact line: one stored interval of one fact, as a parseable
// fact statement without a trailing newline.
//
//   price(1301.5)@[1664272800, 1664272860) .
//   tranM(acc1, 20.0)@[1664272805, 1664272805] .
//
// Doubles round-trip exactly (%.17g, with ".0" appended when the text would
// otherwise lex as an integer); symbols that are not plain identifiers are
// quoted; rationals print as "n" or "n/d"; infinite bounds as "-inf"/"inf".
// This is the line format of SerializeDatabase and of every fact-shaped
// field of the snapshot codec (src/storage/snapshot.h). Parser reads it as
// ordinary source text; ReadFactLine is the codec's own, strict reader.

// Appends the canonical line of pred(args)@iv to *out.
void AppendFactLine(std::string* out, PredicateId pred, const Tuple& args,
                    const Interval& iv);

// AppendFactLine into a fresh string.
std::string SerializeFactLine(PredicateId pred, const Tuple& args,
                              const Interval& iv);

// The exact inverse of AppendFactLine: accepts precisely the lines it
// emits (no comments, no other whitespace, no punctual "@t" shorthand, no
// trailing newline) and returns the fact, or a ParseError naming the column
// of the first mismatch. Never throws. Tests hold it to agree with
// Parser::ParseDatabase, which stays the parser for source files.
Result<Fact> ReadFactLine(std::string_view line);

// Renders a database as canonical fact lines, one per stored interval,
// each followed by '\n', sorted bytewise - a deterministic text that
// Parser::ParseDatabase (or ReadFactLine line by line) reads back to `db`.
std::string SerializeDatabase(const Database& db);

// Inserts every line of SerializeDatabase-shaped text (each line
// ReadFactLine-exact and '\n'-terminated) into *db. On error, *db holds
// the lines before the bad one.
Status ReadDatabaseText(std::string_view text, Database* db);

// File convenience wrappers.
Status WriteDatabaseFile(const Database& db, const std::string& path);
Result<Database> ReadDatabaseFile(const std::string& path);

// Reads a combined rules+facts source file.
Result<Parser::ParsedUnit> ReadSourceFile(const std::string& path);

}  // namespace dmtl

#endif  // DMTL_STORAGE_SERIALIZE_H_
