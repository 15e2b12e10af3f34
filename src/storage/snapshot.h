#ifndef DMTL_STORAGE_SNAPSHOT_H_
#define DMTL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"

namespace dmtl {

// A versioned, text-encoded checkpoint of a live session, taken at a round
// barrier: everything needed to restart the session warm and byte-identical
// instead of cold-replaying the whole input log from the window start.
//
// Captured state:
//   - window position: watermark, window minimum, optional sliding horizon
//   - the materialized database, as SerializeDatabase text (already derived
//     consequences survive the restart)
//   - the input-log tail (clamped by past slides), so post-restore advances
//     can seed exactly the pending bands a never-interrupted session would
//   - open step channels (predicate, held value, coverage logged through)
//   - provenance records, when the session tracks them
//   - a program fingerprint, so a snapshot is never restored against a
//     different rule set (the database text would silently mismatch)
//
// Every fact-shaped field (channels, the input log, the database section,
// provenance records) is one canonical fact line, exactly as
// SerializeFactLine emits it (src/storage/serialize.h). The codec writes
// and reads those lines itself - AppendFactLine / ReadFactLine - in one
// pass; a line in any other spelling is a corrupt snapshot. Snapshots stay
// human-readable, and Parser (the source-file parser) still reads every
// line, but it is not on the snapshot path.
struct SessionSnapshot {
  // An open step channel (see StreamingSession::PushStep): the held value
  // and the time through which its coverage has been logged.
  struct Channel {
    PredicateId predicate = 0;
    Tuple args;
    Rational logged_hi;
  };

  int version = 1;
  uint64_t program_fingerprint = 0;
  Rational watermark;
  Rational window_min;
  std::optional<Rational> horizon;
  // Whether the session has executed its first advance; gates the
  // "push strictly above the watermark" finality check after restore.
  bool advanced = false;
  bool track_provenance = true;
  std::vector<Channel> channels;
  std::vector<Fact> input_log;
  // SerializeDatabase text of the materialized database (sorted canonical
  // fact lines, each '\n'-terminated) - the byte-identity anchor.
  std::string database_text;
  std::vector<DerivationRecord> provenance;
};

// Stable FNV-1a 64-bit fingerprint of the program's printed form. Two
// programs that print identically materialize identically, which is the
// property snapshot restore needs.
uint64_t ProgramFingerprint(const Program& program);

// Renders the snapshot in the versioned "DMTL-SNAPSHOT v1" text format.
std::string EncodeSnapshot(const SessionSnapshot& snapshot);

// Parses EncodeSnapshot output. Unknown magic or a version this build does
// not understand is an error, never a silent partial decode; so is any
// line, the database section's included, that is not exactly what the
// encoder writes. Never throws: every malformed input is a Status.
Result<SessionSnapshot> DecodeSnapshot(const std::string& text);

// File convenience wrappers.
Status WriteSnapshotFile(const SessionSnapshot& snapshot,
                         const std::string& path);
Result<SessionSnapshot> ReadSnapshotFile(const std::string& path);

}  // namespace dmtl

#endif  // DMTL_STORAGE_SNAPSHOT_H_
