#ifndef DMTL_EVAL_CHAIN_ACCEL_H_
#define DMTL_EVAL_CHAIN_ACCEL_H_

#include <functional>
#include <map>
#include <optional>

#include "src/ast/rule.h"
#include "src/common/status.h"
#include "src/storage/database.h"

namespace dmtl {

// Accelerates the temporal self-propagation pattern that dominates the
// ETH-PERP program (rules 2, 7, 13, 21, 24, 32, 35, 39):
//
//   P(x) :- boxminus[c,c] P(x), not B1(x'), ..., G1(x''), ... .
//
// where the head equals the shifted body atom, c > 0, and every guard /
// blocker predicate lives in a strictly lower stratum (hence is fully
// materialized). Instead of one fixpoint round per tick, the closure of
// each seed tuple is emitted in a single pass: the guard-allowed time set
// is computed once per tuple and the step-c progression is walked through
// it. Extend walks point by point, one emit per grid point; it is the
// interpreter's path and the oracle for the compiled kernel
// (RuleVm::ExtendChain), which emits each grid run as one interval batch. A
// run there crosses from one allowed component into the next while that
// component holds the next grid point, so guards that are themselves chains
// (punctual grids, one component per point) do not split it.
//
// This is an optimization only - it derives exactly the facts the naive
// fixpoint would (the ablation bench verifies equality of materializations).
class ChainAccelerator {
 public:
  struct ChainInfo {
    PredicateId predicate = 0;
    Rational step;            // signed: +c for past operators, -c for future
    size_t self_literal = 0;  // index into rule.body
    std::vector<size_t> positive_guards;
    std::vector<size_t> negated_guards;
  };

  // Returns the chain description when the rule matches the accelerable
  // pattern under the given predicate->stratum map, nullopt otherwise.
  static std::optional<ChainInfo> Detect(
      const Rule& rule, const std::map<PredicateId, int>& predicate_stratum);

  // Emits one point/interval at a time; returns whether any part was new
  // (walks stop early once they re-enter already-derived territory).
  using EmitPointFn =
      std::function<Result<bool>(const Tuple& tuple, const Interval& iv)>;

  // Guard-allowed sets per head tuple. Guards live in lower strata, so the
  // engine keeps one cache per chain rule for the lifetime of its stratum.
  using AllowedCache = std::unordered_map<Tuple, IntervalSet, TupleHash>;

  // Extends every tuple present in `delta` for the chain predicate to its
  // closure. `window` clamps the walk (required when guards leave the
  // allowed set unbounded). `cache` may be null.
  static Status Extend(const Rule& rule, const ChainInfo& info,
                       const Database& db, const Database& delta,
                       const Interval& window, AllowedCache* cache,
                       const EmitPointFn& emit);
};

}  // namespace dmtl

#endif  // DMTL_EVAL_CHAIN_ACCEL_H_
