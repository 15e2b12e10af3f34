// Property/fuzz coverage for the batched IntervalSet kernels and the
// small-buffer storage: over randomized rational interval streams, the bulk
// construction and merge paths (FromIntervals, Add, UnionWith,
// UnionWithDelta) must produce exactly the coalesced set the per-interval
// Insert reference builds, and the deltas they report must equal the union
// of the per-interval Insert deltas. The set-vs-set Intersect and the four
// metric transforms are checked the same way against per-component
// references, over windows that are punctual, open, closed or
// half-infinite; closed-point windows [a,a] (the translation path) get their
// own cases. Grid batches must build the same set whatever order they arrive
// in. The streams deliberately straddle the
// inline capacity of SmallIntervalVec (2 intervals) so both the inline
// representation and the heap spill are exercised, including copies, moves,
// and equality across representations.

#include <gtest/gtest.h>

#include <algorithm>
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
    // Ascending input (overlaps and touches included) takes the no-sort
    // coalescing sweep.
    std::sort(stream.begin(), stream.end(),
              [](const Interval& x, const Interval& y) {
                return x.StartsBefore(y);
              });
    EXPECT_EQ(IntervalSet::FromIntervals(stream), reference);
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
void ExpectTransformsMatchPerComponentReference(const IntervalSet& a,
                                                const Interval& rho) {
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

TEST_P(BulkKernelFuzzTest, MetricTransformsMatchPerComponentReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    ExpectTransformsMatchPerComponentReference(a, fuzz.Window());
  }
}

// A closed-point window [a,a] turns all four transforms into translations
// (IntervalSet::Shift). The translation must still equal the per-component
// transforms, over sets holding open, half-infinite, fractional and
// negative components.
TEST_P(BulkKernelFuzzTest, ClosedPointWindowsMatchPerComponentReference) {
  const Rational offsets[] = {Rational(0), Rational(1, 2), Rational(1),
                              Rational(7)};
  IntervalSet fixed = InsertReference({
      Interval::AtMost(Rational(-9)),
      *Interval::Make(Bound::Open(Rational(-7, 2)), Bound::Open(Rational(-2))),
      Interval::Point(Rational(-1, 2)),
      Interval::ClosedOpen(Rational(1, 3), Rational(2)),
      *Interval::Make(Bound::Open(Rational(2)), Bound::Closed(Rational(5, 2))),
      Interval::Point(Rational(4)),
      *Interval::Make(Bound::Open(Rational(11, 2)), Bound::Infinite()),
  });
  ASSERT_EQ(fixed.size(), 7u);
  IntervalFuzzer fuzz(GetParam());
  for (const Rational& a : offsets) {
    const Interval rho = Interval::Point(a);
    ExpectTransformsMatchPerComponentReference(fixed, rho);
    ExpectTransformsMatchPerComponentReference(IntervalSet(), rho);
    for (int round = 0; round < 20; ++round) {
      ExpectTransformsMatchPerComponentReference(
          InsertReference(fuzz.Stream(fuzz.PickSize(12))), rho);
    }
  }
}

// Contains(Interval) binary-searches for the one component that could hold
// the interval; it must agree with a scan over every component.
TEST_P(BulkKernelFuzzTest, ContainsIntervalMatchesComponentScan) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(12)));
    for (int probe = 0; probe < 10; ++probe) {
      // Probe with the set's own components too, so true answers occur.
      const Interval iv = probe < 3 && !a.IsEmpty()
                              ? a.intervals()[probe % a.size()]
                              : fuzz.Next();
      const bool scan = std::any_of(a.begin(), a.end(), [&](const Interval& x) {
        return x.Contains(iv);
      });
      EXPECT_EQ(a.Contains(iv), scan)
          << "a=" << a.ToString() << " iv=" << iv.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkKernelFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// A chain walk emits grid batches of up to 2048 points: ascending on
// forward walks, reversed into ascending order on backward ones. The
// ascending input skips the sort; every order must build the same set.
// 2048 points also keeps the batch far past the small-input insertion path.
TEST(GridBatchTest, FromIntervalsIgnoresInputOrder) {
  for (const Rational& step : {Rational(1), Rational(1, 2)}) {
    std::vector<Interval> ascending;
    Rational t(-1000);
    for (int i = 0; i < 2048; ++i) {
      ascending.push_back(Interval::Point(t));
      t = t + step;
    }
    std::vector<Interval> descending(ascending.rbegin(), ascending.rend());
    std::vector<Interval> shuffled = ascending;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7919));

    const IntervalSet reference = InsertReference(shuffled);
    ASSERT_EQ(reference.size(), 2048u);
    EXPECT_EQ(IntervalSet::FromIntervals(ascending), reference);
    EXPECT_EQ(IntervalSet::FromIntervals(descending), reference);
    EXPECT_EQ(IntervalSet::FromIntervals(shuffled), reference);
  }
}

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
