// Pointwise semantic oracle for the exact Rational IntervalSet kernels.
// Every set the fuzzer builds has its finite endpoints on the half grid, so
// every kernel result does too, and two such sets are equal iff they agree
// on every multiple of 1/4 in a range past their outermost endpoints. The
// checks read membership straight from the definitions (t in a u b iff t in
// a or t in b; diamondminus_rho a at t iff a at some t - s with s in rho;
// ...), so they do not share code or structure with the kernels' sweeps.
// Witnesses s of the metric operators are searched on the 1/8 grid: for t
// on the 1/4 grid the set of witnesses is a union of intervals with
// endpoints on the 1/4 grid, which is non-empty iff it holds a point of the
// 1/8 grid.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

// Sample points are k/8 for integer k. Finite endpoints of the fuzzed sets
// lie in [-10, 14], window endpoints in [0, 8), so every kernel result has
// its finite endpoints in [-18, 22]; t is sampled over [-24, 24] and the
// witness s over [0, 40], past every breakpoint it could meet.
constexpr int kDenom = 8;
constexpr int kTimeMin = -24 * kDenom;
constexpr int kTimeMax = 24 * kDenom;
constexpr int kWitnessMax = 40 * kDenom;

Rational At(int k) { return Rational(k, kDenom); }

class HalfGridFuzzer {
 public:
  explicit HalfGridFuzzer(uint64_t seed) : rng_(seed) {}

  int Pick(int n) { return static_cast<int>(rng_() % n); }

  Interval Next() {
    const Rational lo(Pick(41) - 20, 2);
    if (Pick(12) == 0) {
      return Pick(2) == 0 ? Interval::AtLeast(lo) : Interval::AtMost(lo);
    }
    const Rational hi = lo + Rational(Pick(9), 2);
    Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
    Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
    return Interval::Make(blo, bhi).value_or(Interval::Point(lo));
  }

  IntervalSet Set() {
    IntervalSet out;
    const int n = Pick(7);
    for (int i = 0; i < n; ++i) out.Add(Next());
    return out;
  }

  // A metric-operator window: non-negative, on the half grid; punctual,
  // open, closed, half-open or unbounded above.
  Interval Window() {
    const Rational lo(Pick(9), 2);
    switch (Pick(5)) {
      case 0:
        return Interval::AtLeast(lo);
      case 1:
        return Interval::Point(lo);
      default: {
        const Rational hi = lo + Rational(1 + Pick(6), 2);
        Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
        Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
        return Interval::Make(blo, bhi).value_or(Interval::Point(lo));
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

// Membership of a set on the 1/8 grid over [lo, hi], indexed by k - lo.
std::vector<bool> Sample(const IntervalSet& set, int lo, int hi) {
  std::vector<bool> out(hi - lo + 1);
  for (int k = lo; k <= hi; ++k) out[k - lo] = set.Contains(At(k));
  return out;
}

// Compares `got` with `expected(k)` at every t = k/8 on the 1/4 grid.
void ExpectMembership(const IntervalSet& got,
                      const std::function<bool(int)>& expected,
                      const std::string& what) {
  for (int k = kTimeMin; k <= kTimeMax; k += kDenom / 4) {
    ASSERT_EQ(got.Contains(At(k)), expected(k))
        << what << " at t=" << At(k).ToString() << ": got " << got.ToString();
  }
}

class PointwiseKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointwiseKernelTest, SetAlgebraMatchesMembership) {
  HalfGridFuzzer fuzz(GetParam());
  for (int round = 0; round < 30; ++round) {
    const IntervalSet a = fuzz.Set();
    const IntervalSet b = fuzz.Set();
    const std::vector<bool> in_a = Sample(a, kTimeMin, kTimeMax);
    const std::vector<bool> in_b = Sample(b, kTimeMin, kTimeMax);
    auto A = [&](int k) { return static_cast<bool>(in_a[k - kTimeMin]); };
    auto B = [&](int k) { return static_cast<bool>(in_b[k - kTimeMin]); };
    const std::string where = "a=" + a.ToString() + " b=" + b.ToString();

    IntervalSet u = a;
    u.UnionWith(b);
    ExpectMembership(u, [&](int k) { return A(k) || B(k); },
                     "UnionWith " + where);
    ExpectMembership(a.Intersect(b), [&](int k) { return A(k) && B(k); },
                     "Intersect " + where);
    ExpectMembership(a.Subtract(b), [&](int k) { return A(k) && !B(k); },
                     "Subtract " + where);
    ExpectMembership(a.Complement(), [&](int k) { return !A(k); },
                     "Complement " + where);

    IntervalSet grown = a;
    const IntervalSet fresh = grown.UnionWithDelta(b);
    ExpectMembership(grown, [&](int k) { return A(k) || B(k); },
                     "UnionWithDelta result " + where);
    ExpectMembership(fresh, [&](int k) { return B(k) && !A(k); },
                     "UnionWithDelta delta " + where);
  }
}

TEST_P(PointwiseKernelTest, MetricTransformsMatchMembership) {
  HalfGridFuzzer fuzz(GetParam());
  for (int round = 0; round < 30; ++round) {
    const IntervalSet a = fuzz.Set();
    const Interval rho = fuzz.Window();
    // t - s and t + s range over [kTimeMin - kWitnessMax, kTimeMax +
    // kWitnessMax]; outside [-10, 14] membership of `a` no longer changes.
    const int lo = kTimeMin - kWitnessMax;
    const int hi = kTimeMax + kWitnessMax;
    const std::vector<bool> in_a = Sample(a, lo, hi);
    auto A = [&](int k) { return static_cast<bool>(in_a[k - lo]); };
    std::vector<int> witnesses;
    for (int s = 0; s <= kWitnessMax; ++s) {
      if (rho.Contains(At(s))) witnesses.push_back(s);
    }
    ASSERT_FALSE(witnesses.empty()) << rho.ToString();
    auto some = [&](int k, int sign) {
      for (int s : witnesses) {
        if (A(k + sign * s)) return true;
      }
      return false;
    };
    auto all = [&](int k, int sign) {
      for (int s : witnesses) {
        if (!A(k + sign * s)) return false;
      }
      return true;
    };
    const std::string where = "a=" + a.ToString() + " rho=" + rho.ToString();

    ExpectMembership(a.DiamondMinus(rho), [&](int k) { return some(k, -1); },
                     "DiamondMinus " + where);
    ExpectMembership(a.DiamondPlus(rho), [&](int k) { return some(k, +1); },
                     "DiamondPlus " + where);
    ExpectMembership(a.BoxMinus(rho), [&](int k) { return all(k, -1); },
                     "BoxMinus " + where);
    ExpectMembership(a.BoxPlus(rho), [&](int k) { return all(k, +1); },
                     "BoxPlus " + where);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointwiseKernelTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- Touching endpoints ----------------------------------------------------
// On Q, [0,3] and (3,5] leave no point between them and must coalesce;
// [0,3) and (3,5] leave the point 3 out and must stay two components.

TEST(TouchingEndpointsTest, ClosedMeetsOpenCoalesces) {
  IntervalSet set(Interval::Closed(Rational(0), Rational(3)));
  set.Add(Interval::OpenClosed(Rational(3), Rational(5)));
  EXPECT_EQ(set, IntervalSet(Interval::Closed(Rational(0), Rational(5))));

  IntervalSet mirrored(Interval::ClosedOpen(Rational(0), Rational(3)));
  mirrored.Add(Interval::Closed(Rational(3), Rational(5)));
  EXPECT_EQ(mirrored, set);
}

TEST(TouchingEndpointsTest, OpenMeetsOpenLeavesTheSharedPointOut) {
  IntervalSet set(Interval::ClosedOpen(Rational(0), Rational(3)));
  set.Add(Interval::OpenClosed(Rational(3), Rational(5)));
  ASSERT_EQ(set.size(), 2u) << set.ToString();
  EXPECT_FALSE(set.Contains(Rational(3)));
  EXPECT_TRUE(set.Contains(Rational(5, 2)));
  EXPECT_TRUE(set.Contains(Rational(7, 2)));

  // Filling the one missing point joins the two components.
  set.Add(Interval::Point(Rational(3)));
  EXPECT_EQ(set, IntervalSet(Interval::Closed(Rational(0), Rational(5))));
}

}  // namespace
}  // namespace dmtl
