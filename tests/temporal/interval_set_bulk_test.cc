// Property/fuzz coverage for the batched IntervalSet kernels and the
// small-buffer storage: over randomized rational interval streams, the bulk
// construction and merge paths (FromIntervals, Add, UnionWith,
// UnionWithDelta) must produce exactly the coalesced set the per-interval
// Insert reference builds, and the deltas they report must equal the union
// of the per-interval Insert deltas. The set-vs-set Intersect and the four
// metric transforms are checked the same way against per-component
// references, over windows that are punctual, open, closed or
// half-infinite. The streams deliberately straddle the
// inline capacity of SmallIntervalVec (2 intervals) so both the inline
// representation and the heap spill are exercised, including copies, moves,
// and equality across representations.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

// A randomized interval over a small rational grid: finite open/closed
// endpoints (halves included so openness matters), occasionally infinite.
class IntervalFuzzer {
 public:
  explicit IntervalFuzzer(uint64_t seed) : rng_(seed) {}

  Interval Next() {
    if (Pick(20) == 0) {
      // Unbounded on one side.
      Rational t = Point();
      return Pick(2) == 0 ? Interval::AtLeast(t) : Interval::AtMost(t);
    }
    Rational lo = Point();
    Rational hi = lo + Rational(Pick(7), 2);
    Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
    Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
    auto made = Interval::Make(blo, bhi);
    // Empty combination (e.g. [t,t) ): fall back to the point.
    return made.value_or(Interval::Point(lo));
  }

  std::vector<Interval> Stream(size_t n) {
    std::vector<Interval> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(Next());
    return out;
  }

  size_t PickSize(size_t max) { return Pick(static_cast<int>(max) + 1); }

  // A metric-operator window rho: non-negative, on the half grid.
  Interval Window() {
    const Rational lo(Pick(9), 2);
    switch (Pick(5)) {
      case 0:
        return Interval::AtLeast(lo);
      case 1:
        return Interval::Point(lo);
      case 2:
        return *Interval::Make(Bound::Open(lo), Bound::Infinite());
      default: {
        const Rational hi = lo + Rational(Pick(7), 2);
        Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
        Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
        return Interval::Make(blo, bhi).value_or(Interval::Point(lo));
      }
    }
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }
  Rational Point() { return Rational(Pick(41) - 20, 2); }

  std::mt19937_64 rng_;
};

// The reference semantics every batched path must match.
IntervalSet InsertReference(const std::vector<Interval>& stream) {
  IntervalSet out;
  for (const Interval& iv : stream) out.Insert(iv);
  return out;
}

class BulkKernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkKernelFuzzTest, FromIntervalsMatchesInsertReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::vector<Interval> stream = fuzz.Stream(fuzz.PickSize(12));
    IntervalSet reference = InsertReference(stream);
    IntervalSet bulk = IntervalSet::FromIntervals(stream);
    EXPECT_EQ(bulk, reference)
        << "bulk=" << bulk.ToString() << " ref=" << reference.ToString();
    EXPECT_EQ(bulk.ToString(), reference.ToString());
  }
}

TEST_P(BulkKernelFuzzTest, AddMatchesInsertReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::vector<Interval> stream = fuzz.Stream(fuzz.PickSize(12));
    IntervalSet reference;
    IntervalSet incremental;
    for (const Interval& iv : stream) {
      reference.Insert(iv);
      incremental.Add(iv);
      EXPECT_EQ(incremental, reference);
    }
  }
}

TEST_P(BulkKernelFuzzTest, UnionWithMatchesPerIntervalInserts) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));

    IntervalSet reference = a;
    for (const Interval& iv : b) reference.Insert(iv);

    IntervalSet bulk = a;
    bulk.UnionWith(b);
    EXPECT_EQ(bulk, reference)
        << "a=" << a.ToString() << " b=" << b.ToString();
  }
}

// The delta of a bulk merge must be exactly the union of the per-interval
// Insert deltas: the newly covered portion, nothing of what was already
// covered.
TEST_P(BulkKernelFuzzTest, UnionWithDeltaEqualsInsertDeltas) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));

    IntervalSet reference = a;
    IntervalSet reference_delta;
    for (const Interval& iv : b) {
      reference_delta.UnionWith(reference.Insert(iv));
    }

    IntervalSet bulk = a;
    IntervalSet bulk_delta = bulk.UnionWithDelta(b);
    EXPECT_EQ(bulk, reference);
    EXPECT_EQ(bulk_delta, reference_delta)
        << "a=" << a.ToString() << " b=" << b.ToString()
        << " bulk_delta=" << bulk_delta.ToString()
        << " ref_delta=" << reference_delta.ToString();
    // The delta is exactly what `a` was missing.
    EXPECT_EQ(bulk_delta, b.Subtract(a));
  }
}

TEST_P(BulkKernelFuzzTest, IntersectIntervalMatchesSetIntersect) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    Interval clip = fuzz.Next();
    EXPECT_EQ(a.Intersect(clip), a.Intersect(IntervalSet(clip)))
        << "a=" << a.ToString() << " clip=" << clip.ToString();
  }
}

// Set intersection distributes over components: the sweep and the
// galloping probe must both build exactly the union of the pairwise
// component intersections.
TEST_P(BulkKernelFuzzTest, IntersectMatchesPairwiseReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet reference;
    for (const Interval& x : a) {
      for (const Interval& y : b) {
        if (auto both = x.Intersect(y); both.has_value()) {
          reference.Insert(*both);
        }
      }
    }
    EXPECT_EQ(a.Intersect(b), reference)
        << "a=" << a.ToString() << " b=" << b.ToString();
    EXPECT_EQ(b.Intersect(a), reference);
  }
}

// The metric transforms act component by component: a dilation is the
// union of the dilated components, and an erosion keeps each component's
// surviving core (components are separated by true gaps, so no window fits
// across one). Both must come out normalized.
TEST_P(BulkKernelFuzzTest, MetricTransformsMatchPerComponentReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    const Interval rho = fuzz.Window();
    IntervalSet diamond_minus, diamond_plus, box_minus, box_plus;
    for (const Interval& iv : a) {
      diamond_minus.Insert(iv.DiamondMinus(rho));
      diamond_plus.Insert(iv.DiamondPlus(rho));
      if (auto x = iv.BoxMinus(rho); x.has_value()) box_minus.Insert(*x);
      if (auto x = iv.BoxPlus(rho); x.has_value()) box_plus.Insert(*x);
    }
    const std::string where = "a=" + a.ToString() + " rho=" + rho.ToString();
    EXPECT_EQ(a.DiamondMinus(rho), diamond_minus) << where;
    EXPECT_EQ(a.DiamondPlus(rho), diamond_plus) << where;
    EXPECT_EQ(a.BoxMinus(rho), box_minus) << where;
    EXPECT_EQ(a.BoxPlus(rho), box_plus) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkKernelFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- Small-buffer representation ------------------------------------------
// Sets of up to two intervals live inline; the third insertion spills to the
// heap. Behavior must be identical on both sides of the boundary and across
// copies/moves that change representation.

TEST(SmallBufferTest, InlineToHeapSpillPreservesContents) {
  IntervalSet set;
  std::vector<Interval> pieces;
  for (int i = 0; i < 8; ++i) {
    Interval iv = Interval::Closed(Rational(3 * i), Rational(3 * i + 1));
    pieces.push_back(iv);
    set.Add(iv);
    ASSERT_EQ(set.size(), static_cast<size_t>(i + 1));
    for (size_t j = 0; j < pieces.size(); ++j) {
      EXPECT_EQ(set.intervals()[j], pieces[j]) << "after insert " << i;
    }
  }
}

TEST(SmallBufferTest, CopyAndMoveAcrossRepresentations) {
  IntervalSet inline_set;
  inline_set.Add(Interval::Closed(Rational(0), Rational(1)));
  inline_set.Add(Interval::Closed(Rational(5), Rational(6)));

  IntervalSet heap_set;
  for (int i = 0; i < 6; ++i) {
    heap_set.Add(Interval::Point(Rational(2 * i)));
  }

  // Copies compare equal whatever the source representation.
  IntervalSet inline_copy = inline_set;
  IntervalSet heap_copy = heap_set;
  EXPECT_EQ(inline_copy, inline_set);
  EXPECT_EQ(heap_copy, heap_set);

  // Cross-representation assignment in both directions.
  IntervalSet target = heap_set;
  target = inline_set;
  EXPECT_EQ(target, inline_set);
  target = heap_copy;
  EXPECT_EQ(target, heap_set);

  // Moved-from heap storage is stolen, not copied: the moved-to set holds
  // the full contents.
  IntervalSet moved = std::move(heap_copy);
  EXPECT_EQ(moved, heap_set);

  // Mutating the copy leaves the original alone (no shared storage).
  inline_copy.Add(Interval::Point(Rational(100)));
  EXPECT_NE(inline_copy, inline_set);
  EXPECT_EQ(inline_set.size(), 2u);
}

TEST(SmallBufferTest, InsertDeltaIdenticalAcrossSpillBoundary) {
  // Insert a covering interval into a set sitting exactly at the inline
  // capacity and just past it; the reported uncovered delta must agree
  // with Subtract in both representations.
  for (int preload : {1, 2, 3, 5}) {
    IntervalSet set;
    for (int i = 0; i < preload; ++i) {
      set.Add(Interval::Closed(Rational(4 * i), Rational(4 * i + 1)));
    }
    Interval wide = Interval::Closed(Rational(-1), Rational(30));
    IntervalSet before = set;
    IntervalSet delta = set.Insert(wide);
    EXPECT_EQ(delta, IntervalSet(wide).Subtract(before))
        << "preload=" << preload;
    EXPECT_EQ(set.size(), 1u);
  }
}

}  // namespace
}  // namespace dmtl
