#include "src/storage/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "src/storage/serialize.h"

namespace dmtl {

namespace {

constexpr std::string_view kMagic = "DMTL-SNAPSHOT";
constexpr int kVersion = 1;

// Reads an integer field (decimal, or hex for the fingerprint) that must
// span all of `text`.
template <typename T>
bool ReadWhole(std::string_view text, T* out, int base = 10) {
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, *out, base);
  return !text.empty() && ec == std::errc() && ptr == last;
}

// Sequential scanner over the snapshot's lines, as views into the text,
// with the fixed-format helpers the decoder needs; every helper reports
// the offending line on mismatch.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  // The unread remainder of the text.
  std::string_view rest() const { return rest_; }

  Result<std::string_view> Next(std::string_view what) {
    if (rest_.empty()) {
      return Status::ParseError("snapshot truncated: expected " +
                                std::string(what));
    }
    const size_t end = rest_.find('\n');
    const std::string_view line = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                      : end + 1);
    return line;
  }

  // "key rest-of-line" -> rest-of-line.
  Result<std::string_view> Keyed(std::string_view key) {
    DMTL_ASSIGN_OR_RETURN(std::string_view line, Next(key));
    if (!line.starts_with(key) || line.substr(key.size(), 1) != " ") {
      return Status::ParseError("snapshot: expected '" + std::string(key) +
                                " ...', got: " + std::string(line));
    }
    return line.substr(key.size() + 1);
  }

  Result<Rational> KeyedRational(std::string_view key) {
    DMTL_ASSIGN_OR_RETURN(std::string_view value, Keyed(key));
    return Rational::FromString(std::string(value));
  }

  Result<bool> KeyedBool(std::string_view key) {
    DMTL_ASSIGN_OR_RETURN(std::string_view value, Keyed(key));
    if (value == "0") return false;
    if (value == "1") return true;
    return Status::ParseError("snapshot: " + std::string(key) +
                              " must be 0 or 1, got: " + std::string(value));
  }

  Result<size_t> KeyedCount(std::string_view key) {
    DMTL_ASSIGN_OR_RETURN(std::string_view value, Keyed(key));
    size_t n = 0;
    if (!ReadWhole(value, &n)) {
      return Status::ParseError("snapshot: bad " + std::string(key) +
                                " count: " + std::string(value));
    }
    return n;
  }

 private:
  std::string_view rest_;
};

void AppendLine(std::string* out, std::string_view key,
                std::string_view value) {
  out->append(key);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

}  // namespace

uint64_t ProgramFingerprint(const Program& program) {
  const std::string text = program.ToString();
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

std::string EncodeSnapshot(const SessionSnapshot& snapshot) {
  std::string out;
  // The database text dominates; fact-shaped lines average well under 128
  // bytes.
  out.reserve(256 + snapshot.database_text.size() +
              128 * (snapshot.channels.size() + snapshot.input_log.size() +
                     snapshot.provenance.size()));
  out.append(kMagic);
  out.append(" v");
  out.append(std::to_string(snapshot.version));
  out.push_back('\n');
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(snapshot.program_fingerprint));
  AppendLine(&out, "program", fp);
  AppendLine(&out, "watermark", snapshot.watermark.ToString());
  AppendLine(&out, "window_min", snapshot.window_min.ToString());
  AppendLine(&out, "horizon",
             snapshot.horizon.has_value() ? snapshot.horizon->ToString()
                                          : std::string("none"));
  AppendLine(&out, "advanced", snapshot.advanced ? "1" : "0");
  AppendLine(&out, "provenance", snapshot.track_provenance ? "1" : "0");
  // Each open channel renders as a point fact at its logged-through time:
  // the statement carries the predicate, the held value, and logged_hi.
  AppendLine(&out, "channels", std::to_string(snapshot.channels.size()));
  for (const SessionSnapshot::Channel& ch : snapshot.channels) {
    AppendFactLine(&out, ch.predicate, ch.args, Interval::Point(ch.logged_hi));
    out.push_back('\n');
  }
  AppendLine(&out, "log", std::to_string(snapshot.input_log.size()));
  for (const Fact& f : snapshot.input_log) {
    AppendFactLine(&out, f.predicate, f.args, f.interval);
    out.push_back('\n');
  }
  const size_t db_lines = static_cast<size_t>(
      std::count(snapshot.database_text.begin(),
                 snapshot.database_text.end(), '\n'));
  AppendLine(&out, "db", std::to_string(db_lines));
  out.append(snapshot.database_text);
  AppendLine(&out, "prov", std::to_string(snapshot.provenance.size()));
  for (const DerivationRecord& rec : snapshot.provenance) {
    out.append(std::to_string(rec.rule_index));
    out.push_back(' ');
    out.append(std::to_string(rec.round));
    out.push_back(' ');
    AppendFactLine(&out, rec.predicate, rec.tuple, rec.piece);
    out.push_back('\n');
  }
  return out;
}

Result<SessionSnapshot> DecodeSnapshot(const std::string& text) {
  LineScanner lines(text);
  DMTL_ASSIGN_OR_RETURN(std::string_view header, lines.Next("header"));
  const size_t space = header.find(' ');
  if (header.substr(0, space) != kMagic) {
    return Status::ParseError("not a DMTL snapshot (bad magic): " +
                              std::string(header));
  }
  const std::string_view version_tag =
      space == std::string_view::npos ? std::string_view()
                                      : header.substr(space + 1);
  int version = 0;
  if (!version_tag.starts_with("v") ||
      !ReadWhole(version_tag.substr(1), &version)) {
    return Status::ParseError("snapshot: bad version tag: " +
                              std::string(header));
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::string(version_tag.substr(1)) +
        " is not supported by this build (expected v1)");
  }

  SessionSnapshot snap;
  snap.version = version;
  DMTL_ASSIGN_OR_RETURN(std::string_view fp_hex, lines.Keyed("program"));
  if (!ReadWhole(fp_hex, &snap.program_fingerprint, 16)) {
    return Status::ParseError("snapshot: bad program fingerprint: " +
                              std::string(fp_hex));
  }
  DMTL_ASSIGN_OR_RETURN(snap.watermark, lines.KeyedRational("watermark"));
  DMTL_ASSIGN_OR_RETURN(snap.window_min, lines.KeyedRational("window_min"));
  DMTL_ASSIGN_OR_RETURN(std::string_view horizon, lines.Keyed("horizon"));
  if (horizon != "none") {
    DMTL_ASSIGN_OR_RETURN(Rational h, Rational::FromString(std::string(horizon)));
    snap.horizon = h;
  }
  DMTL_ASSIGN_OR_RETURN(snap.advanced, lines.KeyedBool("advanced"));
  DMTL_ASSIGN_OR_RETURN(snap.track_provenance, lines.KeyedBool("provenance"));

  DMTL_ASSIGN_OR_RETURN(size_t num_channels, lines.KeyedCount("channels"));
  for (size_t i = 0; i < num_channels; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string_view line, lines.Next("channel line"));
    DMTL_ASSIGN_OR_RETURN(Fact fact, ReadFactLine(line));
    if (fact.interval.lo().infinite || fact.interval.hi().infinite ||
        fact.interval.lo().value != fact.interval.hi().value) {
      return Status::ParseError("snapshot: channel line must be a point: " +
                                std::string(line));
    }
    snap.channels.push_back(SessionSnapshot::Channel{
        fact.predicate, std::move(fact.args), fact.interval.lo().value});
  }

  DMTL_ASSIGN_OR_RETURN(size_t num_log, lines.KeyedCount("log"));
  for (size_t i = 0; i < num_log; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string_view line, lines.Next("log line"));
    DMTL_ASSIGN_OR_RETURN(Fact fact, ReadFactLine(line));
    snap.input_log.push_back(std::move(fact));
  }

  // Every db line is read now, so a corrupt snapshot fails at decode, not
  // mid-restore; the section itself is kept verbatim.
  DMTL_ASSIGN_OR_RETURN(size_t num_db, lines.KeyedCount("db"));
  const std::string_view db_start = lines.rest();
  for (size_t i = 0; i < num_db; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string_view line, lines.Next("db line"));
    DMTL_RETURN_IF_ERROR(ReadFactLine(line).status());
  }
  snap.database_text =
      std::string(db_start.substr(0, db_start.size() - lines.rest().size()));

  DMTL_ASSIGN_OR_RETURN(size_t num_prov, lines.KeyedCount("prov"));
  for (size_t i = 0; i < num_prov; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string_view line, lines.Next("prov line"));
    // "rule_index round fact-line".
    const size_t first = line.find(' ');
    const size_t second = line.find(' ', first == std::string_view::npos
                                             ? line.size()
                                             : first + 1);
    DerivationRecord rec;
    if (second == std::string_view::npos ||
        !ReadWhole(line.substr(0, first), &rec.rule_index) ||
        !ReadWhole(line.substr(first + 1, second - first - 1),
                      &rec.round)) {
      return Status::ParseError("snapshot: bad provenance record: " +
                                std::string(line));
    }
    DMTL_ASSIGN_OR_RETURN(Fact fact, ReadFactLine(line.substr(second + 1)));
    rec.predicate = fact.predicate;
    rec.tuple = std::move(fact.args);
    rec.piece = fact.interval;
    snap.provenance.push_back(std::move(rec));
  }
  return snap;
}

Status WriteSnapshotFile(const SessionSnapshot& snapshot,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  file << EncodeSnapshot(snapshot);
  if (!file.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<SessionSnapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::InvalidArgument("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DecodeSnapshot(buffer.str());
}

}  // namespace dmtl
