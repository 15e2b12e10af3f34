// Experiment B1 - microbenchmarks of the temporal substrate: interval set
// insertion/coalescing, intersections (including the asymmetric fast path
// that rule evaluation leans on), and the MTL operator transforms.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

IntervalSet TickChain(int n) {
  IntervalSet set;
  for (int i = 0; i < n; ++i) {
    set.Insert(Interval::Point(Rational(i)));
  }
  return set;
}

void BM_InsertAppendChain(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set = TickChain(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertAppendChain)->Arg(128)->Arg(1024)->Arg(8192);

void BM_InsertCoalescing(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set;
    int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      // Touching closed intervals coalesce into one.
      set.Insert(Interval::Closed(Rational(i), Rational(i + 1)));
    }
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertCoalescing)->Arg(128)->Arg(1024)->Arg(8192);

void BM_IntersectSmallLarge(benchmark::State& state) {
  IntervalSet large = TickChain(static_cast<int>(state.range(0)));
  IntervalSet small(Interval::Point(Rational(state.range(0) / 2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(large.Intersect(small));
  }
}
BENCHMARK(BM_IntersectSmallLarge)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_IntersectSweep(benchmark::State& state) {
  IntervalSet a = TickChain(static_cast<int>(state.range(0)));
  IntervalSet b = a.Shift(Rational(1, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntersectSweep)->Arg(1024)->Arg(8192);

void BM_Complement(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Complement());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Complement)->Arg(1024)->Arg(8192);

void BM_DiamondMinusTransform(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Interval rho = Interval::Point(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.DiamondMinus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiamondMinusTransform)->Arg(1024)->Arg(8192);

// The other two transforms under the paper's [1,1] window, over the same
// per-tick chain: a closed-point window makes every transform a shift.
void BM_BoxMinusPointWindow(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Interval rho = Interval::Point(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.BoxMinus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoxMinusPointWindow)->Arg(1024)->Arg(8192);

void BM_DiamondPlusPointWindow(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Interval rho = Interval::Point(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.DiamondPlus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiamondPlusPointWindow)->Arg(1024)->Arg(8192);

void BM_BoxMinusTransform(benchmark::State& state) {
  // Wide components erode; per-tick chains mostly vanish.
  IntervalSet set;
  int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    set.Insert(
        Interval::Closed(Rational(10 * i), Rational(10 * i + 6)));
  }
  Interval rho = Interval::Closed(Rational(0), Rational(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.BoxMinus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoxMinusTransform)->Arg(1024)->Arg(8192);

void BM_SinceOperator(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  IntervalSet m1;
  IntervalSet m2;
  for (int i = 0; i < n; ++i) {
    m1.Insert(Interval::Closed(Rational(10 * i), Rational(10 * i + 8)));
    m2.Insert(Interval::Point(Rational(10 * i + 1)));
  }
  Interval rho = Interval::Closed(Rational(0), Rational(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m1.Since(m2, rho));
  }
}
BENCHMARK(BM_SinceOperator)->Arg(64)->Arg(256);

// Batched construction: one sort + one coalescing sweep (FromIntervals)
// versus the per-interval Insert loop over the same stream. The stream is
// emitted out of order so the bulk path cannot ride the append fast path.
void BM_IntervalSetBulkInsert(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Interval> stream;
  stream.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Stride through residue classes: maximally unsorted, partially
    // coalescing input.
    int t = (i * 7919) % n;
    stream.push_back(Interval::Closed(Rational(2 * t), Rational(2 * t + 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalSet::FromIntervals(stream));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntervalSetBulkInsert)->Arg(128)->Arg(1024)->Arg(8192);

// The per-interval reference for the bulk row above (same stream).
void BM_IntervalSetBulkInsertReference(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Interval> stream;
  stream.reserve(n);
  for (int i = 0; i < n; ++i) {
    int t = (i * 7919) % n;
    stream.push_back(Interval::Closed(Rational(2 * t), Rational(2 * t + 1)));
  }
  for (auto _ : state) {
    IntervalSet set;
    for (const Interval& iv : stream) set.Insert(iv);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntervalSetBulkInsertReference)->Arg(128)->Arg(1024)->Arg(8192);

// One chain-walk batch: 2048 grid points, the cap of a single grid run.
// Arg 0 lists them ascending (a forward walk), arg 1 descending (a backward
// walk's emission order before the walker reverses it).
void BM_FromIntervalsGridBatch(benchmark::State& state) {
  std::vector<Interval> batch;
  batch.reserve(2048);
  for (int i = 0; i < 2048; ++i) {
    batch.push_back(Interval::Point(Rational(1'700'000'000 + i)));
  }
  if (state.range(0) == 1) std::reverse(batch.begin(), batch.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalSet::FromIntervals(batch));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_FromIntervalsGridBatch)->Arg(0)->Arg(1);

// Bulk merge-union of two offset tick chains: the single two-pointer sweep
// UnionWith runs versus inserting the other set's components one by one.
void BM_IntervalSetUnionWith(benchmark::State& state) {
  IntervalSet a = TickChain(static_cast<int>(state.range(0)));
  IntervalSet b = a.Shift(Rational(1, 2));
  for (auto _ : state) {
    IntervalSet merged = a;
    merged.UnionWith(b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalSetUnionWith)->Arg(1024)->Arg(8192);

void BM_ContainsBinarySearch(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Rational probe(state.range(0) / 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Contains(probe));
  }
}
BENCHMARK(BM_ContainsBinarySearch)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace dmtl
