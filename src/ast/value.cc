#include "src/ast/value.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace dmtl {

namespace {

// Process-wide symbol interner. Uses the function-local-static-reference
// pattern so it is never destroyed (safe at any shutdown order).
//
// Names live in blocks that never move: block b holds the ids
// [kFirstBlock * (2^b - 1), kFirstBlock * (2^(b+1) - 1)). Intern() appends
// under the mutex; Name() reads without it. An id only reaches a reader
// through the Intern() call that created it, so the write of its slot
// happens-before every read of it, and no other thread ever writes that
// slot again. The id map keys are views of those stable strings, so a
// lookup hit allocates nothing while the mutex is held.
class SymbolTable {
 public:
  static SymbolTable& Get() {
    static SymbolTable& table = *new SymbolTable();
    return table;
  }

  uint32_t Intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(ids_.size());
    const auto [block, offset] = Locate(id);
    std::string* slots = blocks_[block].load(std::memory_order_relaxed);
    if (slots == nullptr) {
      slots = new std::string[kFirstBlock << block];
      blocks_[block].store(slots, std::memory_order_release);
    }
    slots[offset].assign(name);
    ids_.emplace(slots[offset], id);
    return id;
  }

  const std::string& Name(uint32_t id) const {
    const auto [block, offset] = Locate(id);
    const std::string* slots = blocks_[block].load(std::memory_order_acquire);
    assert(slots != nullptr);
    return slots[offset];
  }

 private:
  static constexpr size_t kFirstBlock = 1024;
  // 2^32 ids fit in the first 23 blocks.
  static constexpr int kBlocks = 23;

  static std::pair<int, size_t> Locate(uint32_t id) {
    const size_t q = id / kFirstBlock + 1;
    const int block = std::bit_width(q) - 1;
    return {block, id - kFirstBlock * ((size_t{1} << block) - 1)};
  }

  std::mutex mu_;
  std::atomic<std::string*> blocks_[kBlocks] = {};
  std::unordered_map<std::string_view, uint32_t> ids_;
};

}  // namespace

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

Value Value::Symbol(std::string_view name) {
  return SymbolFromId(SymbolTable::Get().Intern(name));
}

Value Value::SymbolFromId(uint32_t id) {
  Value v;
  v.kind_ = Kind::kSymbol;
  v.symbol_ = id;
  return v;
}

bool Value::AsBool() const {
  assert(is_bool());
  return bool_;
}

int64_t Value::AsInt() const {
  assert(is_int());
  return int_;
}

double Value::AsDouble() const {
  assert(is_numeric());
  return is_int() ? static_cast<double>(int_) : double_;
}

uint32_t Value::symbol_id() const {
  assert(is_symbol());
  return symbol_;
}

const std::string& Value::AsSymbolName() const {
  return SymbolTable::Get().Name(symbol_id());
}

int Value::NumericCompare(const Value& a, const Value& b) {
  assert(a.is_numeric() && b.is_numeric());
  if (a.is_int() && b.is_int()) {
    if (a.int_ < b.int_) return -1;
    if (b.int_ < a.int_) return 1;
    return 0;
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  if (x < y) return -1;
  if (y < x) return 1;
  return 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << double_;
      return os.str();
    }
    case Kind::kSymbol:
      return AsSymbolName();
  }
  return "?";
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.bool_ == b.bool_;
    case Value::Kind::kInt:
      return a.int_ == b.int_;
    case Value::Kind::kDouble:
      return a.double_ == b.double_;
    case Value::Kind::kSymbol:
      return a.symbol_ == b.symbol_;
  }
  return false;
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
  switch (a.kind_) {
    case Value::Kind::kNull:
      return false;
    case Value::Kind::kBool:
      return a.bool_ < b.bool_;
    case Value::Kind::kInt:
      return a.int_ < b.int_;
    case Value::Kind::kDouble:
      return a.double_ < b.double_;
    case Value::Kind::kSymbol:
      return a.AsSymbolName() < b.AsSymbolName();
  }
  return false;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind_);
  size_t payload = 0;
  switch (kind_) {
    case Kind::kNull:
      payload = 0;
      break;
    case Kind::kBool:
      payload = bool_ ? 1 : 0;
      break;
    case Kind::kInt:
      payload = std::hash<int64_t>()(int_);
      break;
    case Kind::kDouble:
      payload = std::hash<double>()(double_);
      break;
    case Kind::kSymbol:
      payload = symbol_;
      break;
  }
  return h * 0x9e3779b97f4a7c15ULL + payload;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

std::string TupleToString(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuple[i].ToString();
  }
  out += ')';
  return out;
}

size_t TupleHash::operator()(const Tuple& t) const {
  size_t h = t.size();
  for (const Value& v : t) {
    h = h * 0x100000001b3ULL ^ v.Hash();
  }
  return h;
}

}  // namespace dmtl
