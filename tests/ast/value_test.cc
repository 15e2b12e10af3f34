#include "src/ast/value.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace dmtl {
namespace {

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Double(2.5).is_double());
  EXPECT_TRUE(Value::Symbol("abc").is_symbol());
  EXPECT_TRUE(Value::Int(3).is_numeric());
  EXPECT_TRUE(Value::Double(2.5).is_numeric());
  EXPECT_FALSE(Value::Symbol("abc").is_numeric());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Int(4).AsDouble(), 4.0);  // int promotes
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Symbol("acc1").AsSymbolName(), "acc1");
}

TEST(ValueTest, SymbolInterning) {
  Value a = Value::Symbol("hello");
  Value b = Value::Symbol("hello");
  Value c = Value::Symbol("world");
  EXPECT_EQ(a.symbol_id(), b.symbol_id());
  EXPECT_NE(a.symbol_id(), c.symbol_id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ValueTest, StructuralEqualityDistinguishesKinds) {
  // Identity is structural: Int(1) != Double(1.0)...
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  // ...but numeric comparison promotes.
  EXPECT_EQ(Value::NumericCompare(Value::Int(1), Value::Double(1.0)), 0);
  EXPECT_LT(Value::NumericCompare(Value::Int(1), Value::Double(1.5)), 0);
  EXPECT_GT(Value::NumericCompare(Value::Double(2.0), Value::Int(1)), 0);
}

TEST(ValueTest, HashConsistency) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Symbol("x").Hash(), Value::Symbol("x").Hash());
  std::unordered_set<Value> set;
  set.insert(Value::Int(1));
  set.insert(Value::Int(1));
  set.insert(Value::Double(1.0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Symbol("acc").ToString(), "acc");
}

TEST(ValueTest, TotalOrderForSorting) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Symbol("a"), Value::Symbol("b"));
  // Cross-kind ordering is by kind tag, stable either way.
  Value i = Value::Int(5);
  Value s = Value::Symbol("a");
  EXPECT_NE(i < s, s < i);
}

TEST(TupleTest, HashAndToString) {
  Tuple t1 = {Value::Symbol("acc"), Value::Double(20.0)};
  Tuple t2 = {Value::Symbol("acc"), Value::Double(20.0)};
  Tuple t3 = {Value::Symbol("acc"), Value::Double(21.0)};
  TupleHash h;
  EXPECT_EQ(h(t1), h(t2));
  EXPECT_NE(h(t1), h(t3));  // overwhelmingly likely
  EXPECT_EQ(TupleToString(t1), "(acc, 20)");
  EXPECT_EQ(TupleToString({}), "()");
}

// The process-wide symbol table is shared by every session and worker:
// writers intern fresh names (crossing storage-block boundaries) and render
// them while readers resolve ids the writers publish, re-intern known names,
// and render tuples. Run under ThreadSanitizer in CI.
TEST(SymbolTableTest, ConcurrentInternAndName) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 3000;
  const std::string tag = "symtab_concurrent_";
  auto name_of = [&tag](int w, int i) {
    return tag + std::to_string(w) + "_" + std::to_string(i);
  };
  std::vector<std::string> known;
  std::vector<uint32_t> known_ids;
  for (int i = 0; i < 64; ++i) {
    known.push_back(tag + "known_" + std::to_string(i));
    known_ids.push_back(Value::Symbol(known.back()).symbol_id());
  }

  std::vector<std::vector<std::atomic<uint32_t>>> published(kWriters);
  std::vector<std::atomic<int>> counts(kWriters);
  for (auto& p : published) {
    p = std::vector<std::atomic<uint32_t>>(kPerWriter);
  }
  std::atomic<int> failures{0};
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string name = name_of(w, i);
        Value v = Value::Symbol(name);
        if (v.AsSymbolName() != name ||
            TupleToString({v}) != "(" + name + ")") {
          failures.fetch_add(1);
        }
        published[w][i].store(v.symbol_id(), std::memory_order_relaxed);
        counts[w].store(i + 1, std::memory_order_release);
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      size_t k = static_cast<size_t>(r);
      while (writers_done.load() < kWriters) {
        for (int w = 0; w < kWriters; ++w) {
          const int n = counts[w].load(std::memory_order_acquire);
          if (n == 0) continue;
          const int i = static_cast<int>(k % static_cast<size_t>(n));
          const uint32_t id =
              published[w][i].load(std::memory_order_relaxed);
          if (Value::SymbolFromId(id).AsSymbolName() != name_of(w, i)) {
            failures.fetch_add(1);
          }
        }
        const size_t j = k % known.size();
        if (Value::Symbol(known[j]).symbol_id() != known_ids[j] ||
            TupleToString({Value::SymbolFromId(known_ids[j])}) !=
                "(" + known[j] + ")") {
          failures.fetch_add(1);
        }
        k += 7;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every published id still resolves, and interning is idempotent.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_EQ(Value::Symbol(name_of(w, i)).symbol_id(),
                published[w][i].load());
    }
  }
}

}  // namespace
}  // namespace dmtl
