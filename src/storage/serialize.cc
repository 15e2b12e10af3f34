#include "src/storage/serialize.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

namespace dmtl {

namespace {

bool IsPlainIdentifier(std::string_view s) {
  if (s.empty() || !std::islower(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

void AppendInt(std::string* out, int64_t i) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

void AppendValue(std::string* out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out->append("null");
      return;
    case Value::Kind::kBool:
      out->append(v.AsBool() ? "true" : "false");
      return;
    case Value::Kind::kInt:
      AppendInt(out, v.AsInt());
      return;
    case Value::Kind::kDouble: {
      // to_chars(general, 17) prints exactly what "%.17g" does.
      char buf[64];
      const char* end = std::to_chars(buf, buf + sizeof(buf), v.AsDouble(),
                                      std::chars_format::general, 17)
                            .ptr;
      const std::string_view s(buf, static_cast<size_t>(end - buf));
      out->append(s);
      // Keep the literal lexing as a double on re-parse.
      if (s.find_first_of(".e") == std::string_view::npos &&
          s.find("inf") == std::string_view::npos &&
          s.find("nan") == std::string_view::npos) {
        out->append(".0");
      }
      return;
    }
    case Value::Kind::kSymbol: {
      const std::string& name = v.AsSymbolName();
      if (IsPlainIdentifier(name)) {
        out->append(name);
      } else {
        out->push_back('"');
        out->append(name);
        out->push_back('"');
      }
      return;
    }
  }
}

void AppendBound(std::string* out, const Bound& b, bool lower) {
  if (b.infinite) {
    out->append(lower ? "-inf" : "inf");
    return;
  }
  AppendInt(out, b.value.numerator());
  if (!b.value.is_integer()) {
    out->push_back('/');
    AppendInt(out, b.value.denominator());
  }
}

// A cursor over one canonical fact line. Every Read* consumes exactly the
// writer's spelling of its element or fails with the current column.
class FactLineReader {
 public:
  explicit FactLineReader(std::string_view line) : line_(line) {}

  Result<Fact> Read() {
    Fact fact;
    const size_t name_start = pos_;
    if (!At(IsLower)) return Error("predicate name");
    while (At(IsIdentChar)) ++pos_;
    fact.predicate =
        InternPredicate(line_.substr(name_start, pos_ - name_start));
    if (!Eat("(")) return Error("'('");
    if (!Eat(")")) {
      while (true) {
        DMTL_ASSIGN_OR_RETURN(Value v, ReadValue());
        fact.args.push_back(std::move(v));
        if (Eat(")")) break;
        if (!Eat(", ")) return Error("', ' or ')'");
      }
    }
    if (!Eat("@")) return Error("'@'");
    const bool lo_open = Eat("(");
    if (!lo_open && !Eat("[")) return Error("'[' or '('");
    DMTL_ASSIGN_OR_RETURN(Bound lo, ReadBound("-inf", lo_open));
    if (!Eat(", ")) return Error("', '");
    const size_t hi_pos = pos_;
    // As in the parser: the closing bracket decides a finite bound's
    // openness; an infinite one is always open.
    DMTL_ASSIGN_OR_RETURN(Bound hi, ReadBound("inf", /*open=*/false));
    if (Eat(")")) {
      hi.open = true;
    } else if (!Eat("]")) {
      return Error("']' or ')'");
    }
    if (!Eat(" .")) return Error("' .'");
    if (pos_ != line_.size()) return Error("end of line");
    std::optional<Interval> iv = Interval::Make(lo, hi);
    if (!iv.has_value()) {
      pos_ = hi_pos;
      return Error("a non-empty interval");
    }
    fact.interval = *iv;
    return fact;
  }

 private:
  static bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  bool At(bool (*pred)(char)) const {
    return pos_ < line_.size() && pred(line_[pos_]);
  }

  bool Eat(std::string_view token) {
    if (!line_.substr(pos_).starts_with(token)) return false;
    pos_ += token.size();
    return true;
  }

  Status Error(const char* expected) const {
    return Status::ParseError("fact line column " + std::to_string(pos_ + 1) +
                              ": expected " + expected + ": " +
                              std::string(line_));
  }

  Result<Value> ReadValue() {
    if (Eat("\"")) {
      const size_t close = line_.find('"', pos_);
      if (close == std::string_view::npos) return Error("closing '\"'");
      Value v = Value::Symbol(line_.substr(pos_, close - pos_));
      pos_ = close + 1;
      return v;
    }
    if (At(IsLower)) {
      const size_t start = pos_;
      while (At(IsIdentChar)) ++pos_;
      const std::string_view name = line_.substr(start, pos_ - start);
      // Keyword literals, as the parser reads them.
      if (name == "true") return Value::Bool(true);
      if (name == "false") return Value::Bool(false);
      if (name == "null") return Value::Null();
      return Value::Symbol(name);
    }
    return ReadNumber();
  }

  // "-"? digits ("." digits)? ([eE] [+-]? digits)? - the lexer's number
  // shape. A '.' or an exponent makes it a double, as in the parser.
  Result<Value> ReadNumber() {
    const size_t start = pos_;
    Eat("-");
    if (!At(IsDigit)) return Error("a value");
    bool is_double = false;
    while (At(IsDigit)) ++pos_;
    if (pos_ + 1 < line_.size() && line_[pos_] == '.' &&
        IsDigit(line_[pos_ + 1])) {
      is_double = true;
      ++pos_;
      while (At(IsDigit)) ++pos_;
    }
    if (At([](char c) { return c == 'e' || c == 'E'; })) {
      const size_t mark = pos_++;
      if (!Eat("+")) Eat("-");
      if (At(IsDigit)) {
        is_double = true;
        while (At(IsDigit)) ++pos_;
      } else {
        pos_ = mark;
      }
    }
    const char* first = line_.data() + start;
    const char* last = line_.data() + pos_;
    if (is_double) {
      double d = 0;
      if (std::from_chars(first, last, d).ec != std::errc()) {
        pos_ = start;
        return Error("a double in range");
      }
      return Value::Double(d);
    }
    int64_t i = 0;
    if (std::from_chars(first, last, i).ec != std::errc()) {
      pos_ = start;
      return Error("an integer in int64 range");
    }
    return Value::Int(i);
  }

  Result<Bound> ReadBound(std::string_view infinity, bool open) {
    if (Eat(infinity)) return Bound::Infinite();
    DMTL_ASSIGN_OR_RETURN(Rational r, ReadRational());
    return open ? Bound::Open(r) : Bound::Closed(r);
  }

  // "-"? digits ("/" digits)?, with a positive denominator.
  Result<Rational> ReadRational() {
    const size_t start = pos_;
    Eat("-");
    if (!At(IsDigit)) return Error("a time bound");
    while (At(IsDigit)) ++pos_;
    int64_t num = 0;
    if (std::from_chars(line_.data() + start, line_.data() + pos_, num).ec !=
        std::errc()) {
      pos_ = start;
      return Error("a numerator in int64 range");
    }
    if (!Eat("/")) return Rational(num);
    const size_t den_start = pos_;
    while (At(IsDigit)) ++pos_;
    int64_t den = 0;
    if (std::from_chars(line_.data() + den_start, line_.data() + pos_, den)
                .ec != std::errc() ||
        den == 0) {
      pos_ = den_start;
      return Error("a positive int64 denominator");
    }
    return Rational(num, den);
  }

  std::string_view line_;
  size_t pos_ = 0;
};

}  // namespace

void AppendFactLine(std::string* out, PredicateId pred, const Tuple& args,
                    const Interval& iv) {
  out->append(PredicateName(pred));
  out->push_back('(');
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendValue(out, args[i]);
  }
  out->append(")@");
  out->push_back(iv.lo().open ? '(' : '[');
  AppendBound(out, iv.lo(), /*lower=*/true);
  out->append(", ");
  AppendBound(out, iv.hi(), /*lower=*/false);
  out->push_back(iv.hi().open ? ')' : ']');
  out->append(" .");
}

std::string SerializeFactLine(PredicateId pred, const Tuple& args,
                              const Interval& iv) {
  std::string line;
  AppendFactLine(&line, pred, args, iv);
  return line;
}

Result<Fact> ReadFactLine(std::string_view line) {
  return FactLineReader(line).Read();
}

std::string SerializeDatabase(const Database& db) {
  // Render every line into one buffer, sort (offset, length) views of it,
  // and concatenate once.
  std::string buffer;
  std::vector<std::pair<size_t, size_t>> lines;
  for (const auto& [pred, rel] : db.relations()) {
    for (const auto& [tuple, set] : rel.data()) {
      for (const Interval& iv : set) {
        const size_t start = buffer.size();
        AppendFactLine(&buffer, pred, tuple, iv);
        lines.emplace_back(start, buffer.size() - start);
      }
    }
  }
  const std::string_view text(buffer);
  auto view = [&text](const std::pair<size_t, size_t>& line) {
    return text.substr(line.first, line.second);
  };
  std::sort(lines.begin(), lines.end(),
            [&view](const auto& a, const auto& b) { return view(a) < view(b); });
  std::string out;
  out.reserve(buffer.size() + lines.size());
  for (const auto& line : lines) {
    out.append(view(line));
    out.push_back('\n');
  }
  return out;
}

Status ReadDatabaseText(std::string_view text, Database* db) {
  while (!text.empty()) {
    const size_t end = text.find('\n');
    if (end == std::string_view::npos) {
      return Status::ParseError("database text must end with a newline");
    }
    DMTL_ASSIGN_OR_RETURN(Fact fact, ReadFactLine(text.substr(0, end)));
    db->Insert(fact.predicate, fact.args, fact.interval);
    text.remove_prefix(end + 1);
  }
  return Status::Ok();
}

Status WriteDatabaseFile(const Database& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  file << SerializeDatabase(db);
  if (!file.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<Database> ReadDatabaseFile(const std::string& path) {
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, ReadSourceFile(path));
  if (unit.program.size() > 0) {
    return Status::ParseError("expected facts only in " + path);
  }
  return std::move(unit.database);
}

Result<Parser::ParsedUnit> ReadSourceFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::InvalidArgument("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = Parser::Parse(buffer.str());
  if (!parsed.ok()) {
    return Status::ParseError(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace dmtl
