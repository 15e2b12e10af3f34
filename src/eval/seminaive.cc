#include "src/eval/seminaive.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>

#include "src/analysis/safety.h"
#include "src/analysis/stratifier.h"
#include "src/common/fault_injector.h"
#include "src/common/thread_pool.h"
#include "src/eval/aggregate_eval.h"
#include "src/eval/chain_accel.h"
#include "src/eval/incremental.h"
#include "src/eval/op_memo.h"
#include "src/eval/rule_eval.h"
#include "src/eval/vm.h"

namespace dmtl {

namespace {

// Sink emissions between guard checks. Covers every unbounded emission
// loop - notably chain-accelerator walks, which emit point-by-point through
// EmitOne - so a divergent rule observes a deadline within ~256 emissions.
constexpr uint64_t kSinkGuardStrideMask = 255;

// One compiled rule: either a plain evaluator (with an optional chain
// acceleration description) or an aggregate evaluator.
struct CompiledRule {
  std::variant<RuleEvaluator, AggregateEvaluator> eval;
  std::optional<ChainAccelerator::ChainInfo> chain;

  bool is_aggregate() const {
    return std::holds_alternative<AggregateEvaluator>(eval);
  }
  const Rule& rule() const {
    return is_aggregate() ? std::get<AggregateEvaluator>(eval).rule()
                          : std::get<RuleEvaluator>(eval).rule();
  }
  const PlannerStats* planner_stats() const {
    return is_aggregate() ? std::get<AggregateEvaluator>(eval).planner_stats()
                          : std::get<RuleEvaluator>(eval).planner_stats();
  }
};

// Inserts derived extents (clamped to the horizon window) and accumulates
// newly covered portions into the delta. Single-writer: this is the only
// path that mutates the shared database, both in sequential evaluation and
// as the barrier-merge step of parallel rounds.
class Sink {
 public:
  Sink(Database* db, Database* next_delta, const Interval& window,
       const EngineOptions& options, EngineStats* stats,
       const ExecutionGuard* guard)
      : db_(db),
        next_delta_(next_delta),
        window_(window),
        options_(options),
        stats_(stats),
        guard_(guard) {}

  // Bulk emission: one window clamp (the horizon is a single interval, so
  // the clip is the fast Intersect(Interval) overload), one coalescing
  // merge into the store, one delta recording - no per-interval
  // IntervalSet temporaries.
  Status Emit(PredicateId pred, const Tuple& tuple,
              const IntervalSet& extent) {
    IntervalSet clamped = extent.Intersect(window_);
    if (clamped.IsEmpty()) return Status::Ok();
    return Record(pred, tuple, db_->InsertSet(pred, tuple, clamped));
  }

  Result<bool> EmitOne(PredicateId pred, const Tuple& tuple,
                       const Interval& iv) {
    // Two intervals intersect to at most one interval: clip without any
    // IntervalSet temporary.
    auto part = iv.Intersect(window_);
    if (!part.has_value()) return false;
    IntervalSet fresh = db_->Insert(pred, tuple, *part);
    bool any_new = !fresh.IsEmpty();
    DMTL_RETURN_IF_ERROR(Record(pred, tuple, fresh));
    return any_new;
  }

  // Provenance context: which rule is emitting, in which round.
  void SetContext(size_t rule_index, size_t round) {
    current_rule_ = rule_index;
    current_round_ = round;
  }

 private:
  // Accounts the newly covered portion of an insertion: stats, next-round
  // delta, provenance, then guard/budget checks. The delta is recorded
  // *before* any check can fail so the rollback (SubtractCoverage of the
  // round delta) always covers exactly what reached the store.
  Status Record(PredicateId pred, const Tuple& tuple,
                const IntervalSet& fresh) {
    if (fresh.IsEmpty()) return Status::Ok();
    stats_->derived_intervals += fresh.size();
    try {
      next_delta_->InsertSet(pred, tuple, fresh);
    } catch (...) {
      // The paired store insert already happened; undo it so the round
      // delta stays an exact record of the store's round growth.
      db_->SubtractCoverage(pred, tuple, fresh);
      throw;
    }
    if (options_.provenance != nullptr) {
      for (const Interval& piece : fresh) {
        options_.provenance->push_back(
            {pred, tuple, piece, current_rule_, current_round_});
      }
    }
    if (guard_ != nullptr && (++emissions_ & kSinkGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard_->Check());
    }
    if (db_->approx_intervals() > options_.max_intervals) {
      return Status::ResourceExhausted(
          "materialization exceeded max_intervals=" +
          std::to_string(options_.max_intervals));
    }
    return Status::Ok();
  }

  Database* db_;
  Database* next_delta_;
  Interval window_;
  const EngineOptions& options_;
  EngineStats* stats_;
  const ExecutionGuard* guard_;
  size_t current_rule_ = 0;
  size_t current_round_ = 0;
  uint64_t emissions_ = 0;
};

// The thread-local counterpart of Sink for parallel rounds: derivations are
// buffered privately (in emission order) instead of touching the shared
// store. Freshness - which also drives the chain accelerator's early-stop -
// is computed against the round-start snapshot plus this task's own overlay,
// so a task sees its own emissions exactly like the sequential sink would.
// The shared database is only written when the barrier merge replays these
// buffers through the Sink above, in rule-index order.
class BufferedSink {
 public:
  struct Emission {
    PredicateId pred = 0;
    Tuple tuple;
    IntervalSet fresh;
  };

  BufferedSink(const Database* base, const Interval& window,
               const EngineOptions* options, const ExecutionGuard* guard)
      : base_(base), window_(window), options_(options), guard_(guard) {}

  Status Emit(PredicateId pred, const Tuple& tuple,
              const IntervalSet& extent) {
    IntervalSet clamped = extent.Intersect(window_);
    if (clamped.IsEmpty()) return Status::Ok();
    DMTL_ASSIGN_OR_RETURN(
        bool fresh, Buffer(pred, tuple, overlay_.InsertSet(pred, tuple, clamped)));
    (void)fresh;
    return Status::Ok();
  }

  Result<bool> EmitOne(PredicateId pred, const Tuple& tuple,
                       const Interval& iv) {
    auto part = iv.Intersect(window_);
    if (!part.has_value()) return false;
    return Buffer(pred, tuple, overlay_.Insert(pred, tuple, *part));
  }

  void AddChainExtension() { ++chain_extensions_; }
  void AddChainExtensions(size_t n) { chain_extensions_ += n; }
  size_t chain_extensions() const { return chain_extensions_; }

  // The task's private coverage overlay (own emissions of this round); the
  // VM chain kernel reads base + overlay as the walk's derived coverage.
  const Database& overlay() const { return overlay_; }

  const std::vector<Emission>& emissions() const { return emissions_; }

 private:
  // Buffers the genuinely new portion of one insertion (overlay freshness
  // minus what the round-start snapshot already covers) as a single
  // Emission. Returns whether anything new was buffered.
  Result<bool> Buffer(PredicateId pred, const Tuple& tuple,
                      IntervalSet fresh) {
    if (guard_ != nullptr && (++buffered_ & kSinkGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard_->Check());
    }
    if (fresh.IsEmpty()) return false;
    if (const Relation* rel = base_->Find(pred)) {
      if (const IntervalSet* known = rel->Find(tuple)) {
        fresh = fresh.Subtract(*known);
      }
    }
    if (fresh.IsEmpty()) return false;
    // Coarse per-task budget guard (an upper bound: snapshot + private
    // overlay); the merge step re-checks against the real store.
    if (base_->approx_intervals() + overlay_.approx_intervals() >
        options_->max_intervals) {
      return Status::ResourceExhausted(
          "materialization exceeded max_intervals=" +
          std::to_string(options_->max_intervals));
    }
    emissions_.push_back(Emission{pred, tuple, std::move(fresh)});
    return true;
  }

  const Database* base_;
  Database overlay_;  // private coverage: own emissions of this round
  Interval window_;
  const EngineOptions* options_;
  const ExecutionGuard* guard_;
  std::vector<Emission> emissions_;
  size_t chain_extensions_ = 0;
  uint64_t buffered_ = 0;
};

// One unit of parallel work: every evaluation of one rule within a round.
// Task lists are built deterministically from round-start state, so the
// dispatch (and the rule-index merge order) is identical across runs.
struct RoundTask {
  size_t rule_id = 0;
  bool initial = false;                // full (non-delta) evaluation
  bool chain = false;                  // use the chain accelerator
  std::vector<int> delta_occurrences;  // semi-naive positions to re-evaluate
  size_t evaluations = 0;              // rule_evaluations this task accounts
};

Interval HorizonWindow(const EngineOptions& options) {
  Bound lo = options.min_time.has_value() ? Bound::Closed(*options.min_time)
                                          : Bound::Infinite();
  Bound hi = options.max_time.has_value() ? Bound::Closed(*options.max_time)
                                          : Bound::Infinite();
  auto window = Interval::Make(lo, hi);
  // Empty windows are a caller error caught at option validation below.
  return window.value_or(Interval::All());
}

// The semi-naive dispatch decision for one round: which positive
// occurrences of `rule` must be re-evaluated against `delta` - every one
// whose predicate has coverage there. Fixpoint-round deltas only ever hold
// the running stratum's heads; a streaming seed delta also carries input
// facts and lower-strata coverage, which must trigger re-evaluation too.
std::vector<int> DeltaOccurrencesAny(const CompiledRule& c,
                                     const RuleEvaluator& eval,
                                     const Database& delta) {
  std::vector<int> occurrences;
  std::vector<const RelationalAtom*> all_atoms;
  for (const BodyLiteral& lit : c.rule().body) {
    if (lit.kind != BodyLiteral::Kind::kMetric || lit.negated) continue;
    lit.metric.CollectRelationalAtoms(&all_atoms);
  }
  for (int occ = 0; occ < eval.num_positive_occurrences(); ++occ) {
    const Relation* changed = delta.Find(all_atoms[occ]->predicate);
    if (changed == nullptr || changed->IsEmpty()) continue;
    occurrences.push_back(occ);
  }
  return occurrences;
}

// Runs one round's tasks across the pool and merges the buffered results
// into the shared store through `sink` in rule-index order.
Status RunRoundParallel(const std::vector<RoundTask>& tasks,
                        const std::vector<CompiledRule>& compiled,
                        const std::vector<std::unique_ptr<RuleVm>>& vms,
                        const std::vector<std::unique_ptr<OperatorMemo>>& memos,
                        const Database& db, const Database& delta,
                        const Interval& window, const EngineOptions& options,
                        ThreadPool* pool,
                        std::unordered_map<size_t, ChainAccelerator::AllowedCache>*
                            chain_caches,
                        size_t round, Sink* sink, EngineStats* stats,
                        const ExecutionGuard* guard) {
  if (tasks.empty()) return Status::Ok();

  std::vector<BufferedSink> sinks;
  sinks.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    sinks.emplace_back(&db, window, &options, guard);
  }

  DMTL_RETURN_IF_ERROR(pool->ParallelFor(
      tasks.size(), [&](size_t ti) -> Status {
        const RoundTask& t = tasks[ti];
        BufferedSink& out = sinks[ti];
        const CompiledRule& c = compiled[t.rule_id];
        // Like the memo, the VM is owned exclusively by this rule's task
        // for the round; barriers order cross-round handoffs.
        RuleVm* vm = vms.empty() ? nullptr : vms[t.rule_id].get();
        PredicateId head = c.rule().head.predicate;
        auto emit = [&out, head](const Tuple& tuple,
                                 const IntervalSet& extent) -> Status {
          return out.Emit(head, tuple, extent);
        };
        if (t.chain) {
          if (vm != nullptr && vm->has_chain()) {
            size_t extensions = 0;
            Status status = vm->ExtendChain(
                db, delta, window, emit,
                [&](const Tuple& tuple) {
                  const IntervalSet* base = nullptr;
                  if (const Relation* rel = db.Find(head)) {
                    base = rel->Find(tuple);
                  }
                  const IntervalSet* over = nullptr;
                  if (const Relation* rel = out.overlay().Find(head)) {
                    over = rel->Find(tuple);
                  }
                  return std::make_pair(base, over);
                },
                guard, &extensions);
            out.AddChainExtensions(extensions);
            return status;
          }
          return ChainAccelerator::Extend(
              c.rule(), *c.chain, db, delta, window,
              &chain_caches->at(t.rule_id),
              [&](const Tuple& tuple, const Interval& iv) -> Result<bool> {
                out.AddChainExtension();
                return out.EmitOne(head, tuple, iv);
              });
        }
        const auto& eval = std::get<RuleEvaluator>(c.eval);
        // Memos are per-rule and each rule is one task, so the task owns
        // its memo exclusively for the round; the ParallelFor join makes
        // the barrier-time refresh single-threaded.
        OperatorMemo* memo = memos.empty() ? nullptr : memos[t.rule_id].get();
        if (t.initial) {
          return vm != nullptr
                     ? vm->Evaluate(db, nullptr, -1, emit, memo, guard)
                     : eval.Evaluate(db, nullptr, -1, emit, memo, guard);
        }
        for (int occ : t.delta_occurrences) {
          DMTL_RETURN_IF_ERROR(
              vm != nullptr
                  ? vm->Evaluate(db, &delta, occ, emit, memo, guard)
                  : eval.Evaluate(db, &delta, occ, emit, memo, guard));
        }
        return Status::Ok();
      }));

  ++stats->parallel_rounds;
  stats->parallel_tasks += tasks.size();
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const RoundTask& t = tasks[ti];
    stats->rule_evaluations += t.evaluations;
    stats->chain_extensions += sinks[ti].chain_extensions();
    // A fault here (or a budget trip inside sink->Emit) aborts the barrier
    // with some sinks merged and others not; the caller's round rollback
    // subtracts the round delta, so the partial merge is never observable.
    DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.merge"));
    sink->SetContext(t.rule_id, round);
    for (const BufferedSink::Emission& e : sinks[ti].emissions()) {
      DMTL_RETURN_IF_ERROR(sink->Emit(e.pred, e.tuple, e.fresh));
    }
    ++stats->parallel_merges;
  }
  return Status::Ok();
}

}  // namespace

std::string DerivationRecord::ToString(const Program& program) const {
  std::string out = PredicateName(predicate) + TupleToString(tuple) + "@" +
                    piece.ToString() + " by rule #" +
                    std::to_string(rule_index);
  if (rule_index < program.rules().size()) {
    out += " [" + program.rules()[rule_index].ToString() + "]";
  }
  out += " (round " + std::to_string(round) + ")";
  return out;
}

EngineOptions EngineOptions::WithEnvOverrides() const {
  EngineOptions out = *this;
  if (std::getenv("DMTL_DISABLE_RULE_COMPILE") != nullptr) {
    out.enable_rule_compile = false;
  }
  if (std::getenv("DMTL_DISABLE_STREAMING") != nullptr) {
    out.enable_streaming = false;
  }
  return out;
}

EngineOptions EngineOptions::FromEnv() {
  return EngineOptions().WithEnvOverrides();
}

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kMaxIntervals:
      return "max_intervals";
    case StopReason::kMaxRounds:
      return "max_rounds";
    case StopReason::kError:
      return "error";
  }
  return "unknown";
}

std::string EngineStats::StopDiagnostics() const {
  std::string out = std::string("stop_reason=") +
                    StopReasonToString(stop_reason) +
                    " stratum=" + std::to_string(stopped_stratum) +
                    " round=" + std::to_string(stopped_round) +
                    " intervals=" + std::to_string(intervals_at_stop);
  if (rolled_back_intervals > 0) {
    out += " rolled_back=" + std::to_string(rolled_back_intervals);
  }
  out += " wall_seconds=" + std::to_string(wall_seconds);
  return out;
}

std::string EngineStats::ToString() const {
  std::string out = "strata=" + std::to_string(num_strata) +
                    " rounds=" + std::to_string(rounds) +
                    " rule_evals=" + std::to_string(rule_evaluations) +
                    " derived_intervals=" + std::to_string(derived_intervals) +
                    " chain_extensions=" + std::to_string(chain_extensions) +
                    " wall_seconds=" + std::to_string(wall_seconds);
  if (threads > 1) {
    out += " threads=" + std::to_string(threads) +
           " parallel_rounds=" + std::to_string(parallel_rounds) +
           " parallel_tasks=" + std::to_string(parallel_tasks) +
           " parallel_merges=" + std::to_string(parallel_merges) +
           " seq_rounds_forced=" + std::to_string(sequential_rounds_forced);
  }
  if (compiled_rules + vm_dispatches + vm_fallbacks > 0) {
    out += " compiled_rules=" + std::to_string(compiled_rules) +
           " vm_dispatches=" + std::to_string(vm_dispatches) +
           " vm_recompiles=" + std::to_string(vm_recompiles) +
           " vm_fallbacks=" + std::to_string(vm_fallbacks);
  }
  if (memo_hits + memo_misses + memo_refreshes + memo_invalidations > 0) {
    out += " memo_hits=" + std::to_string(memo_hits) +
           " memo_misses=" + std::to_string(memo_misses) +
           " memo_refreshes=" + std::to_string(memo_refreshes) +
           " memo_invalidations=" + std::to_string(memo_invalidations);
  }
  if (memo_intersections > 0) {
    out += " memo_intersections=" + std::to_string(memo_intersections) +
           " memo_intersect_components=" +
           std::to_string(memo_intersect_components);
  }
  out += " delta_intervals=" + std::to_string(delta_intervals) +
         " bulk_merges=" + std::to_string(bulk_merges);
  if (planner_indexes_built + planner_index_probes + planner_pruned_tuples >
      0) {
    out += " planner_indexes=" + std::to_string(planner_indexes_built) +
           " planner_probes=" + std::to_string(planner_index_probes) +
           " planner_probe_hits=" + std::to_string(planner_probe_hits) +
           " planner_pruned=" + std::to_string(planner_pruned_tuples);
  }
  if (guard_checks > 0) {
    out += " guard_checks=" + std::to_string(guard_checks);
  }
  if (stop_reason != StopReason::kCompleted) {
    out += " " + StopDiagnostics();
  }
  return out;
}

namespace {

// Everything a chase needs that depends only on the program and the
// resolved options: the stratification, each rule's evaluator, VM and
// operator memo, the worker pool, and the body-predicate indexes the driver
// consults. Materialize builds one per call; an IncrementalMaterializer
// keeps one for the session's lifetime, so compiled VMs and memo entries
// carry across advances.
struct ChaseState {
  // Cumulative evaluator counters; a run's share is the difference between
  // snapshots taken around it.
  struct Counters {
    uint64_t idx_built = 0, probes = 0, probe_hits = 0, pruned = 0;
    uint64_t memo_isect = 0, memo_isect_comps = 0;
    uint64_t vm_disp = 0, vm_comp = 0;
    size_t m_hits = 0, m_miss = 0, m_ref = 0, m_inv = 0;
    uint64_t bulk = 0;
  };

  // Validates, stratifies and compiles `program` under `resolved` (options
  // with the environment lanes already folded in).
  Status Build(const Program& program, const EngineOptions& resolved);

  // The chase: every stratum in order, clamped to `window`. Round 0 runs
  // the stratum's aggregates, then a full evaluation of each rule flagged
  // in `full_rules` and a seed-driven evaluation of the rest; rounds 1..
  // are semi-naive over the previous round's fresh coverage. `carry` is the
  // seed delta and collects every round's fresh coverage so later strata
  // see it; with no carry, only flagged rules run in round 0. A batch run
  // is one band over [min, max] with every rule flagged and no carry; a
  // streaming advance is a band over [W, t] seeded by its carry.
  //
  // A failed round is rolled back (the store returns to the last round
  // barrier) and its status returned; stats->stopped_* say where.
  Status RunStrata(Database* db, const Interval& window, Database* carry,
                   const std::vector<char>* full_rules, EngineStats* stats,
                   const ExecutionGuard* guard);

  // Refreshes every memo entry keyed on a leaf that grew by `fresh`.
  void RefreshMemosWith(const Database& fresh, const Database& live);

  // Drops every cached address into the store - memo entries, compiled VM
  // state, chain guard caches - after coverage changed outside the chase.
  void ResetCaches();

  Counters SnapshotCounters() const;
  // Adds the counters accrued since `base`, plus the compile counts.
  void FoldCounters(const Counters& base, EngineStats* stats) const;

  EngineOptions options;  // resolved; sinks hold references into it
  Stratification strat;
  std::vector<CompiledRule> compiled;
  std::vector<std::unique_ptr<RuleVm>> vms;          // empty: compile off
  std::vector<std::unique_ptr<OperatorMemo>> memos;  // empty: memos off
  std::optional<ThreadPool> pool;
  size_t num_threads = 1;
  size_t compiled_rules = 0;
  size_t vm_fallbacks = 0;
  std::vector<std::set<PredicateId>> positive_preds;      // per rule
  std::vector<std::set<PredicateId>> stratum_body_preds;  // per stratum
  // pred -> rules whose body references it; drives the memo refresh
  // fan-out (only such a rule can hold an entry for the pred's leaves).
  std::unordered_map<PredicateId, std::vector<size_t>> refresh_rules_by_pred;
};

Status ChaseState::Build(const Program& program,
                         const EngineOptions& resolved) {
  options = resolved;
  DMTL_RETURN_IF_ERROR(program.CheckArities());
  DMTL_RETURN_IF_ERROR(CheckSafety(program));
  DMTL_ASSIGN_OR_RETURN(strat, Stratify(program));

  // Parallel execution: num_threads == 1 (the default) is the historical
  // sequential engine; anything else routes rule evaluation through a pool
  // with round-barrier merges (see docs/parallelism.md).
  num_threads = ThreadPool::ResolveThreads(options.num_threads);
  if (num_threads > 1) pool.emplace(num_threads);

  const auto& rules = program.rules();
  compiled.reserve(rules.size());
  positive_preds.resize(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    if (rule.head.aggregate.has_value()) {
      DMTL_ASSIGN_OR_RETURN(
          AggregateEvaluator agg,
          AggregateEvaluator::Create(rule, options.enable_join_planning));
      compiled.push_back(CompiledRule{
          std::variant<RuleEvaluator, AggregateEvaluator>(std::move(agg)),
          std::nullopt});
    } else {
      DMTL_ASSIGN_OR_RETURN(
          RuleEvaluator eval,
          RuleEvaluator::Create(rule, options.enable_join_planning));
      std::optional<ChainAccelerator::ChainInfo> chain;
      if (options.enable_chain_acceleration) {
        chain = ChainAccelerator::Detect(rule, strat.predicate_stratum);
      }
      compiled.push_back(CompiledRule{
          std::variant<RuleEvaluator, AggregateEvaluator>(std::move(eval)),
          std::move(chain)});
    }
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kMetric) continue;
      std::vector<const RelationalAtom*> atoms;
      lit.metric.CollectRelationalAtoms(&atoms);
      for (const RelationalAtom* atom : atoms) {
        if (!lit.negated) positive_preds[i].insert(atom->predicate);
        auto& ids = refresh_rules_by_pred[atom->predicate];
        if (ids.empty() || ids.back() != i) ids.push_back(i);
      }
    }
  }
  stratum_body_preds.assign(strat.num_strata, {});
  for (int s = 0; s < strat.num_strata; ++s) {
    for (size_t id : strat.rule_strata[s]) {
      stratum_body_preds[s].insert(positive_preds[id].begin(),
                                   positive_preds[id].end());
    }
  }

  // Lower each rule's plan to a flat bytecode program run by the dispatch
  // loop. Declined rules (aggregate heads handled by AggregateEvaluator are
  // not counted; see RuleCompiler::Declines for the rest) keep the AST
  // walker - both executors emit identical derivations, so they can be
  // mixed freely within one run. DMTL_DISABLE_RULE_COMPILE in the
  // environment forces the interpreter everywhere (folded into the options
  // by WithEnvOverrides) - the hook CI's compile-off lane uses to re-run
  // the whole suite against the walker without touching call sites.
  if (options.enable_rule_compile) {
    vms.resize(compiled.size());
    for (size_t i = 0; i < compiled.size(); ++i) {
      if (compiled[i].is_aggregate()) continue;
      std::string why;
      vms[i] = RuleVm::Create(std::get<RuleEvaluator>(compiled[i].eval),
                              compiled[i].chain, &why);
      if (vms[i] != nullptr) {
        ++compiled_rules;
      } else {
        ++vm_fallbacks;
      }
    }
  }

  // Interval-delta propagation: one operator memo per rule (exclusive to
  // that rule's task in parallel rounds). The memo hook sits in the join
  // planner's unary-chain fast path, so it is only effective with planning.
  if (options.enable_interval_deltas && options.enable_join_planning) {
    memos.resize(compiled.size());
    for (size_t i = 0; i < compiled.size(); ++i) {
      memos[i] = std::make_unique<OperatorMemo>();
    }
  }
  return Status::Ok();
}

Status ChaseState::RunStrata(Database* db, const Interval& window,
                             Database* carry,
                             const std::vector<char>* full_rules,
                             EngineStats* stats, const ExecutionGuard* guard) {
  auto is_full = [&](size_t id) {
    return full_rules != nullptr && (*full_rules)[id] != 0;
  };
  // Whether the seed delta holds coverage for any of `preds`.
  auto seeded = [&](const std::set<PredicateId>& preds) {
    if (carry == nullptr) return false;
    for (PredicateId p : preds) {
      const Relation* rel = carry->Find(p);
      if (rel != nullptr && !rel->IsEmpty()) return true;
    }
    return false;
  };
  std::vector<DerivationRecord>* provenance = options.provenance;

  stats->stratum_wall_seconds.assign(strat.num_strata, 0.0);
  for (int s = 0; s < strat.num_strata; ++s) {
    auto stratum_start = std::chrono::steady_clock::now();
    const std::vector<size_t>& rule_ids = strat.rule_strata[s];

    // Fast skip: a stratum can only derive something when one of its
    // rules is flagged for full evaluation or some positive body predicate
    // carries seed coverage. This is what keeps steady-state event latency
    // flat: most strata never wake up for a quiet tick.
    if (std::none_of(rule_ids.begin(), rule_ids.end(), is_full) &&
        !seeded(stratum_body_preds[s])) {
      continue;
    }

    Database delta;
    Database next_delta;
    Sink sink(db, &next_delta, window, options, stats, guard);
    // Guard-allowed caches for chain rules live for the whole stratum.
    // Pre-created so concurrent tasks only ever look entries up (the map is
    // never resized while the pool runs; each task mutates its own entry).
    std::unordered_map<size_t, ChainAccelerator::AllowedCache> chain_caches;
    for (size_t id : rule_ids) {
      if (!compiled[id].is_aggregate() && compiled[id].chain.has_value()) {
        chain_caches[id];
      }
    }
    auto emit_for = [&](PredicateId pred) {
      return [&sink, pred](const Tuple& tuple,
                           const IntervalSet& extent) -> Status {
        return sink.Emit(pred, tuple, extent);
      };
    };

    // Failure handling: every round runs inside run_protected (exceptions
    // become a clean kInternal - the engine never throws), and any round
    // failure goes through fail_round, which subtracts the round's delta
    // from the store. next_delta holds exactly the coverage inserted since
    // the last barrier, and freshly covered portions are disjoint from
    // everything stored before, so the subtraction restores the barrier
    // state precisely - whether the round died mid-rule, mid-chain-walk, or
    // halfway through a parallel barrier merge.
    size_t prov_mark = provenance != nullptr ? provenance->size() : 0;
    auto run_protected = [](auto&& fn) -> Status {
      try {
        return fn();
      } catch (const std::exception& e) {
        return Status::Internal(
            std::string("evaluation aborted by exception: ") + e.what());
      } catch (...) {
        return Status::Internal(
            "evaluation aborted by non-standard exception");
      }
    };
    auto fail_round = [&](Status status, size_t round) -> Status {
      stats->rolled_back_intervals += next_delta.NumIntervals();
      db->SubtractCoverage(next_delta);
      if (provenance != nullptr && provenance->size() > prov_mark) {
        provenance->resize(prov_mark);
      }
      stats->stopped_stratum = s;
      stats->stopped_round = round;
      return status;
    };

    // Executes one round's task list, inline or across the pool.
    auto run_tasks = [&](const std::vector<RoundTask>& tasks,
                         const Database& delta_db, size_t round,
                         bool use_pool) -> Status {
      if (use_pool) {
        return RunRoundParallel(
            tasks, compiled, vms, memos, *db, delta_db, window, options,
            &*pool, &chain_caches, round, &sink, stats, guard);
      }
      for (const RoundTask& t : tasks) {
        const CompiledRule& c = compiled[t.rule_id];
        PredicateId head = c.rule().head.predicate;
        OperatorMemo* memo = memos.empty() ? nullptr : memos[t.rule_id].get();
        RuleVm* vm = vms.empty() ? nullptr : vms[t.rule_id].get();
        if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
        sink.SetContext(t.rule_id, round);
        stats->rule_evaluations += t.evaluations;
        if (t.chain) {
          if (vm != nullptr && vm->has_chain()) {
            // Batched chain kernel: derived coverage is read straight off
            // the live store (the walk's own emissions land there
            // immediately in sequential mode, exactly like the
            // point-by-point walker's freshness signal).
            size_t extensions = 0;
            DMTL_RETURN_IF_ERROR(vm->ExtendChain(
                *db, delta_db, window, emit_for(head),
                [&](const Tuple& tuple) {
                  const IntervalSet* live = nullptr;
                  if (const Relation* rel = db->Find(head)) {
                    live = rel->Find(tuple);
                  }
                  return std::make_pair(
                      live, static_cast<const IntervalSet*>(nullptr));
                },
                guard, &extensions));
            stats->chain_extensions += extensions;
            continue;
          }
          DMTL_RETURN_IF_ERROR(ChainAccelerator::Extend(
              c.rule(), *c.chain, *db, delta_db, window,
              &chain_caches[t.rule_id],
              [&](const Tuple& tuple, const Interval& iv) -> Result<bool> {
                ++stats->chain_extensions;
                return sink.EmitOne(head, tuple, iv);
              }));
          continue;
        }
        const auto& eval = std::get<RuleEvaluator>(c.eval);
        auto emit = emit_for(head);
        if (t.initial) {
          DMTL_RETURN_IF_ERROR(
              vm != nullptr
                  ? vm->Evaluate(*db, nullptr, -1, emit, memo, guard)
                  : eval.Evaluate(*db, nullptr, -1, emit, memo, guard));
          continue;
        }
        for (int occ : t.delta_occurrences) {
          DMTL_RETURN_IF_ERROR(
              vm != nullptr
                  ? vm->Evaluate(*db, &delta_db, occ, emit, memo, guard)
                  : eval.Evaluate(*db, &delta_db, occ, emit, memo, guard));
        }
      }
      return Status::Ok();
    };

    // Round 0 reads the seed (no carry: nothing, only flagged rules run);
    // every later round reads the previous round's fresh coverage, which
    // only ever holds this stratum's heads.
    size_t in_size = carry != nullptr ? carry->NumIntervals() : 0;
    for (size_t round = 0;; ++round) {
      const Database& in = round == 0 && carry != nullptr ? *carry : delta;
      if (round > 0) {
        if (round > options.max_rounds) {
          stats->stop_reason = StopReason::kMaxRounds;
          return fail_round(
              Status::ResourceExhausted("stratum " + std::to_string(s) +
                                        " exceeded max_rounds=" +
                                        std::to_string(options.max_rounds)),
              round);
        }
        ++stats->rounds;
        stats->delta_intervals += in_size;
      }

      std::vector<RoundTask> tasks;
      bool any_initial = false;
      for (size_t id : rule_ids) {
        const CompiledRule& c = compiled[id];
        if (c.is_aggregate()) continue;
        RoundTask t;
        t.rule_id = id;
        t.evaluations = 1;
        if (round == 0 && is_full(id)) {
          t.initial = true;
          any_initial = true;
        } else if (c.chain.has_value()) {
          // Round 0 walks a chain only from seed coverage; fixpoint rounds
          // always extend it.
          if (round == 0 && !seeded(positive_preds[id])) continue;
          t.chain = true;
        } else if (round > 0 && options.naive_evaluation) {
          t.initial = true;
        } else {
          // Semi-naive: one pass per positive occurrence of a predicate
          // that changed.
          t.delta_occurrences =
              DeltaOccurrencesAny(c, std::get<RuleEvaluator>(c.eval), in);
          if (t.delta_occurrences.empty()) continue;
          t.evaluations = t.delta_occurrences.size();
        }
        tasks.push_back(std::move(t));
      }

      // Work-size gate: at small deltas, dispatching tasks and merging
      // buffers costs more than the parallelism buys; run the round inline.
      // The option is per worker thread - the barrier merge cost grows with
      // the pool width, so the gate scales with it. Full evaluations always
      // use the pool.
      const bool use_pool =
          pool.has_value() &&
          (any_initial || options.parallel_min_round_intervals == 0 ||
           in_size >= options.parallel_min_round_intervals * num_threads);
      if (round > 0 && pool.has_value() && !use_pool) {
        ++stats->sequential_rounds_forced;
      }

      Status status = run_protected([&]() -> Status {
        if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
        DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
        // Aggregates run first in round 0 and always sequentially: their
        // inputs are strictly below this stratum, so one evaluation is
        // complete, and the stratum's plain rules may read their output in
        // the same round.
        if (round == 0) {
          for (size_t id : rule_ids) {
            if (!compiled[id].is_aggregate()) continue;
            if (!is_full(id) && !seeded(positive_preds[id])) continue;
            ++stats->rule_evaluations;
            sink.SetContext(id, 0);
            const auto& agg = std::get<AggregateEvaluator>(compiled[id].eval);
            DMTL_RETURN_IF_ERROR(agg.Evaluate(
                *db, emit_for(compiled[id].rule().head.predicate),
                memos.empty() ? nullptr : memos[id].get()));
          }
        }
        DMTL_RETURN_IF_ERROR(run_tasks(tasks, in, round, use_pool));
        // Round-end check: a guard trip observed mid-round by a truncating
        // path (operator scans return partial unions) latches; catching it
        // here guarantees the round is discarded even if every Status path
        // happened to pass in between.
        return guard != nullptr ? guard->Check() : Status::Ok();
      });
      if (!status.ok()) return fail_round(std::move(status), round);

      // Round barrier. Memo entries take the fresh coverage (after the
      // round's merges and before the delta swap, so they always equal the
      // operator applied to the round-start snapshot of each leaf); the
      // carry collects it for later strata.
      RefreshMemosWith(next_delta, *db);
      if (carry != nullptr) carry->MergeFrom(next_delta);
      delta = std::move(next_delta);
      next_delta = Database();
      prov_mark = provenance != nullptr ? provenance->size() : 0;
      in_size = delta.NumIntervals();
      if (in_size == 0) break;
    }
    stats->stratum_wall_seconds[s] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stratum_start)
            .count();
  }
  return Status::Ok();
}

void ChaseState::RefreshMemosWith(const Database& fresh,
                                  const Database& live) {
  if (memos.empty()) return;
  for (const auto& [pred, rel] : fresh.relations()) {
    auto rules_it = refresh_rules_by_pred.find(pred);
    if (rules_it == refresh_rules_by_pred.end()) continue;
    const Relation* live_rel = live.Find(pred);
    if (live_rel == nullptr) continue;
    for (const auto& [tuple, grown] : rel.data()) {
      const IntervalSet* leaf = live_rel->Find(tuple);
      if (leaf == nullptr) continue;
      for (size_t id : rules_it->second) {
        if (memos[id] != nullptr) memos[id]->OnLeafChanged(leaf, grown);
      }
    }
  }
}

void ChaseState::ResetCaches() {
  for (auto& memo : memos) {
    if (memo != nullptr) memo->Clear();
  }
  for (auto& vm : vms) {
    if (vm != nullptr) {
      vm->InvalidateCompiledState();
      vm->ClearChainCache();
    }
  }
}

ChaseState::Counters ChaseState::SnapshotCounters() const {
  Counters b;
  for (const CompiledRule& c : compiled) {
    const PlannerStats* ps = c.planner_stats();
    if (ps == nullptr) continue;
    b.idx_built += ps->indexes_built.load(std::memory_order_relaxed);
    b.probes += ps->index_probes.load(std::memory_order_relaxed);
    b.probe_hits += ps->index_probe_hits.load(std::memory_order_relaxed);
    b.pruned += ps->envelope_pruned.load(std::memory_order_relaxed);
    b.memo_isect += ps->memo_intersections.load(std::memory_order_relaxed);
    b.memo_isect_comps +=
        ps->memo_intersect_components.load(std::memory_order_relaxed);
  }
  for (const auto& vm : vms) {
    if (vm == nullptr) continue;
    b.vm_disp += vm->dispatches();
    b.vm_comp += vm->compiles();
  }
  for (const auto& memo : memos) {
    if (memo == nullptr) continue;
    b.m_hits += memo->stats().hits;
    b.m_miss += memo->stats().misses;
    b.m_ref += memo->stats().refreshes;
    b.m_inv += memo->stats().invalidations;
  }
  b.bulk = IntervalSet::BulkMergeCount();
  return b;
}

void ChaseState::FoldCounters(const Counters& base, EngineStats* stats) const {
  const Counters now = SnapshotCounters();
  stats->planner_indexes_built += now.idx_built - base.idx_built;
  stats->planner_index_probes += now.probes - base.probes;
  stats->planner_probe_hits += now.probe_hits - base.probe_hits;
  stats->planner_pruned_tuples += now.pruned - base.pruned;
  stats->memo_intersections += now.memo_isect - base.memo_isect;
  stats->memo_intersect_components +=
      now.memo_isect_comps - base.memo_isect_comps;
  stats->vm_dispatches += now.vm_disp - base.vm_disp;
  stats->vm_recompiles += now.vm_comp - base.vm_comp;
  stats->memo_hits += now.m_hits - base.m_hits;
  stats->memo_misses += now.m_miss - base.m_miss;
  stats->memo_refreshes += now.m_ref - base.m_ref;
  stats->memo_invalidations += now.m_inv - base.m_inv;
  stats->bulk_merges += now.bulk - base.bulk;
  stats->compiled_rules = compiled_rules;
  stats->vm_fallbacks = vm_fallbacks;
}

// Run-level diagnostics shared by batch runs and streaming operations.
void FinishRunStats(std::chrono::steady_clock::time_point start_time,
                    const ExecutionGuard& guard, const Status& status,
                    const Database& db, EngineStats* stats) {
  stats->guard_checks = guard.checks();
  stats->intervals_at_stop = db.NumIntervals();
  stats->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  if (!status.ok() && stats->stop_reason == StopReason::kCompleted) {
    switch (status.code()) {
      case StatusCode::kDeadlineExceeded:
        stats->stop_reason = StopReason::kDeadline;
        break;
      case StatusCode::kCancelled:
        stats->stop_reason = StopReason::kCancelled;
        break;
      case StatusCode::kResourceExhausted:
        stats->stop_reason = StopReason::kMaxIntervals;
        break;
      default:
        stats->stop_reason = StopReason::kError;
        break;
    }
  }
}

// A batch run: one band of the chase over the horizon window, every rule
// flagged full, no carry. The Materialize wrapper owns the guard and
// finalizes the stop diagnostics on every exit path.
Status MaterializeImpl(const Program& program, Database* db,
                       const EngineOptions& options, EngineStats* stats,
                       const ExecutionGuard* guard) {
  if (options.min_time.has_value() && options.max_time.has_value() &&
      *options.max_time < *options.min_time) {
    return Status::InvalidArgument("max_time precedes min_time");
  }
  ChaseState chase;
  DMTL_RETURN_IF_ERROR(chase.Build(program, options));
  stats->num_strata = chase.strat.num_strata;
  stats->threads = chase.num_threads;

  const ChaseState::Counters base = chase.SnapshotCounters();
  const std::vector<char> all_rules(chase.compiled.size(), 1);
  Status status = chase.RunStrata(db, HorizonWindow(options),
                                  /*carry=*/nullptr, &all_rules, stats, guard);

  // Fold each rule's counters into the run stats (the pool has joined;
  // relaxed loads are fully ordered behind the round barriers).
  chase.FoldCounters(base, stats);
  for (const CompiledRule& c : chase.compiled) {
    if (const PlannerStats* ps = c.planner_stats()) {
      stats->rule_plan_cost.push_back(
          ps->last_plan_cost.load(std::memory_order_relaxed));
    }
  }
  return status;
}

}  // namespace

Status Materialize(const Program& program, Database* db,
                   const EngineOptions& options_in, EngineStats* stats) {
  auto start_time = std::chrono::steady_clock::now();
  EngineStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EngineStats();

  // The DMTL_DISABLE_* lanes are resolved exactly here (and at session
  // creation for the incremental engine); everything downstream reads the
  // option fields only.
  const EngineOptions options = options_in.WithEnvOverrides();

  // The guard lives here (not in the impl) so every exit path - including
  // validation errors before evaluation starts - finalizes diagnostics the
  // same way.
  ExecutionGuard guard(options.deadline, options.cancel_token);
  const ExecutionGuard* gptr = guard.enabled() ? &guard : nullptr;

  Status status = MaterializeImpl(program, db, options, stats, gptr);
  FinishRunStats(start_time, guard, status, *db, stats);
  return status;
}

// ===========================================================================
// IncrementalMaterializer: the streaming engine. It runs the same driver as
// Materialize (ChaseState::RunStrata) on one ChaseState kept alive across
// operations: an advance is a band over [W, t] seeded by its carry, a
// retraction a band over the surviving window with the rules whose heads it
// wiped flagged full, and a heal a cold batch band over [min, W].
// ===========================================================================

class IncrementalMaterializer::Impl {
 public:
  Impl(const Program& program, Database* db, const EngineOptions& options)
      : program_(program),
        db_(db),
        options_(options),
        cur_min_(options.min_time.value_or(Rational(0))),
        watermark_(cur_min_) {}

  // One literal's temporal dependence on one relational atom: the head at
  // t reads the atom no earlier than t - hi. Used both ways: forward (an
  // atom changed at x may change heads up to x + hi, the retraction
  // frontier) and backward (a head at t needs the atom above t - hi, the
  // advance band width R).
  struct LitDilation {
    PredicateId pred = 0;
    Rational hi;
    bool hi_inf = false;
  };

  Status Init() {
    // Env lanes resolve once per session, mirroring Materialize: the
    // DMTL_DISABLE_* variables are process-stable in every CI lane, so
    // latching at creation is equivalent to per-operation resolution.
    options_ = options_.WithEnvOverrides();
    if (!options_.min_time.has_value()) {
      return Status::InvalidArgument(
          "streaming requires min_time (the initial window start)");
    }
    if (options_.max_time.has_value()) {
      return Status::InvalidArgument(
          "max_time is managed by the watermark; leave it unset");
    }
    if (options_.naive_evaluation) {
      return Status::InvalidArgument(
          "naive evaluation re-derives everything and cannot run "
          "incrementally");
    }
    DMTL_RETURN_IF_ERROR(chase_.Build(program_, options_));

    const auto& rules = program_.rules();
    rule_dilations_.resize(rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (!rule.head.ops.empty()) {
        return Status::InvalidArgument(
            "rule " + std::to_string(i) +
            ": head operators are not streaming-eligible (they derive "
            "outside the body match, breaking watermark finality)");
      }
      for (const BodyLiteral& lit : rule.body) {
        if (lit.kind != BodyLiteral::Kind::kMetric) continue;
        DMTL_RETURN_IF_ERROR(
            WalkMetric(lit.metric, Rational(0), false, !lit.negated, i));
      }
      if (chase_.positive_preds[i].empty()) {
        return Status::InvalidArgument(
            "rule " + std::to_string(i) +
            ": no positive relational atom; its derivations could never be "
            "reached by a streaming delta");
      }
    }
    ComputeFrontierOffsets();
    provenance_ = options_.provenance;
    return Status::Ok();
  }

  Status Push(const Fact& fact) {
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (advanced_any_) {
      const Bound& lo = fact.interval.lo();
      const bool above =
          !lo.infinite &&
          (watermark_ < lo.value || (lo.value == watermark_ && lo.open));
      if (!above) {
        return Status::InvalidArgument(
            "streamed fact " + fact.ToString() +
            " reaches at or below the watermark " + watermark_.ToString() +
            "; push every fact at time t before advancing to t");
      }
    }
    inputs_.push_back(fact);
    IntervalSet fresh =
        db_->InsertSet(fact.predicate, fact.args, IntervalSet(fact.interval));
    if (!fresh.IsEmpty()) {
      pending_fresh_.InsertSet(fact.predicate, fact.args, fresh);
    }
    return Status::Ok();
  }

  Status Advance(const Rational& t, EngineStats* stats_out) {
    EngineStats local;
    EngineStats* stats = stats_out != nullptr ? stats_out : &local;
    *stats = EngineStats();
    auto start_time = std::chrono::steady_clock::now();
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (t < watermark_) {
      return Status::InvalidArgument("advance to " + t.ToString() +
                                     " precedes the watermark " +
                                     watermark_.ToString());
    }
    ExecutionGuard guard(options_.deadline, options_.cancel_token);
    const ExecutionGuard* gptr = guard.enabled() ? &guard : nullptr;
    const ChaseState::Counters base = chase_.SnapshotCounters();
    stats->num_strata = chase_.strat.num_strata;
    stats->threads = chase_.num_threads;

    // Memo entries may cache operator outputs over leaves the pushed inputs
    // just grew; refresh them with exactly the fresh portions (re-refreshing
    // a portion kept pending from an earlier advance is a union no-op).
    chase_.RefreshMemosWith(pending_fresh_, *db_);
    // Chain guard-allowed sets are only stable within one run: guard
    // predicates grow across advances.
    for (auto& vm : chase_.vms) {
      if (vm != nullptr) vm->ClearChainCache();
    }

    // Seed delta: the boundary band of stored coverage plus the pending
    // input fresh portions. Any derivation landing in (W, t] has every
    // positive support atom above t - R > W - R, so each one is either old
    // (in the band) or new (pending / derived this advance) - which makes
    // occurrence-restricted evaluation against this seed complete.
    Database carry;
    if (watermark_ < t) {
      std::optional<Interval> band;
      if (reach_inf_) {
        band = Interval::AtMost(watermark_);
      } else if (Rational(0) < reach_) {
        band = Interval::Make(Bound::Open(watermark_ - reach_),
                              Bound::Closed(watermark_));
      }
      if (band.has_value()) {
        if (band_cache_valid_) {
          // Steady state: every stored piece intersecting the band was in
          // the previous advance's carry (seed or fresh), so the cached
          // band snapshot - a few live tuples - replaces a full-store scan.
          for (const auto& [pred, rel] : band_cache_.relations()) {
            for (const Relation::ScanEntry& row : rel.Rows()) {
              IntervalSet part = row.extent->Intersect(*band);
              if (!part.IsEmpty()) carry.InsertSet(pred, *row.tuple, part);
            }
          }
        } else {
          for (const auto& [pred, rel] : db_->relations()) {
            for (const Relation::ScanEntry& row : rel.Rows()) {
              if (row.extent->IsEmpty()) continue;
              // Tuples whose coverage ended before the band - the common
              // case once the stream has history - fail on one bound
              // compare instead of a full intersection.
              const Bound& hi =
                  (row.extent->begin() + (row.extent->size() - 1))->hi();
              if (!band->lo().infinite && !hi.infinite &&
                  !(band->lo().value < hi.value)) {
                continue;
              }
              IntervalSet part = row.extent->Intersect(*band);
              if (!part.IsEmpty()) carry.InsertSet(pred, *row.tuple, part);
            }
          }
        }
      }
    }
    carry.MergeFrom(pending_fresh_);

    // Evaluate only over [W, t]: the fixpoint below the watermark is final
    // (no future operators, stratified negation, pointwise aggregates), so
    // every piece of coverage this advance can add lies at or above W.
    // Heads that straddle W merge with their stored prefix on insert, and
    // negation complements / chain guard-allowed sets shrink from
    // O(history) to O(band) per event.
    Status status =
        RunBand(Interval::Closed(watermark_, t), &carry, nullptr, stats, gptr);
    chase_.FoldCounters(base, stats);
    FinishRunStats(start_time, guard, status, *db_, stats);
    if (!status.ok()) return status;

    // Snapshot the next advance's band from this advance's carry. Every
    // stored piece that can intersect (t - R, t] was either seeded into
    // `carry` (it intersected the old band, whose lower bound is no higher),
    // pushed (pending), or derived this run (the barrier merges fresh
    // coverage back into the carry) - so the snapshot replaces the
    // full-store scan above on the next advance. Unbounded reach keeps the
    // scan: its band has no finite lower edge to snapshot against.
    if (!reach_inf_ && Rational(0) < reach_) {
      std::optional<Interval> next_band =
          Interval::Make(Bound::Open(t - reach_), Bound::Closed(t));
      if (next_band.has_value()) {
        if (watermark_ < t) band_cache_.Clear();
        bool snapshot_complete = watermark_ < t || band_cache_valid_;
        for (const auto& [pred, rel] : carry.relations()) {
          for (const Relation::ScanEntry& row : rel.Rows()) {
            IntervalSet part = row.extent->Intersect(*next_band);
            if (!part.IsEmpty()) band_cache_.InsertSet(pred, *row.tuple, part);
          }
        }
        band_cache_valid_ = snapshot_complete;
      }
    }

    watermark_ = t;
    advanced_any_ = true;
    TrimPendingAbove(t);
    return Status::Ok();
  }

  Status Retract(const Rational& new_min, EngineStats* stats_out) {
    EngineStats local;
    EngineStats* stats = stats_out != nullptr ? stats_out : &local;
    *stats = EngineStats();
    auto start_time = std::chrono::steady_clock::now();
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (!(cur_min_ < new_min)) {
      return Status::InvalidArgument("window minimum must increase (" +
                                     cur_min_.ToString() + " -> " +
                                     new_min.ToString() + ")");
    }
    if (watermark_ < new_min) {
      return Status::InvalidArgument(
          "cannot slide the window past the watermark " +
          watermark_.ToString());
    }
    ExecutionGuard guard(options_.deadline, options_.cancel_token);
    const ExecutionGuard* gptr = guard.enabled() ? &guard : nullptr;
    const ChaseState::Counters base = chase_.SnapshotCounters();
    stats->num_strata = chase_.strat.num_strata;
    stats->threads = chase_.num_threads;

    // Per-predicate frontier: where stored coverage may differ from a cold
    // run over the clamped inputs.
    std::unordered_map<PredicateId, IntervalSet> frontier =
        ComputeFrontier(new_min);

    // Clamp the input log so rebuilds, cold replays, and the re-insertion
    // below all see the post-slide inputs. cur_min_ moves first: a failure
    // past this point heals into the new window.
    ClampLogTo(new_min);
    cur_min_ = new_min;

    for (const auto& [pred, region] : frontier) {
      if (region.IsEmpty()) continue;
      stats->rolled_back_intervals += db_->RemoveRegion(pred, region);
    }
    if (provenance_ != nullptr) PruneProvenance(frontier);
    // Wiped regions may include surviving input coverage (the frontier is
    // region-based, not derivation-based); re-insert it raw from the log,
    // exactly like a cold run's input load - never through the sink, so no
    // provenance records appear for input coverage.
    for (const Fact& f : inputs_) {
      db_->InsertSet(f.predicate, f.args, IntervalSet(f.interval));
    }

    // Removal dropped bound indexes and may have erased tuples or whole
    // relations: every cached address is suspect. The band snapshot is
    // stale too - retraction removes coverage and re-inserts raw inputs
    // outside any carry - so the next advance falls back to a full scan.
    chase_.ResetCaches();
    band_cache_ = Database();
    band_cache_valid_ = false;

    // Re-derive: full evaluation for every rule whose head frontier meets
    // the surviving window, then the usual delta fixpoint. Starting from a
    // wiped (sub-fixpoint) state, the monotone chase lands exactly on the
    // cold fixpoint.
    Interval window = Interval::Closed(cur_min_, watermark_);
    std::vector<char> full(chase_.compiled.size(), 0);
    bool any = false;
    for (size_t i = 0; i < chase_.compiled.size(); ++i) {
      auto it = frontier.find(chase_.compiled[i].rule().head.predicate);
      if (it == frontier.end()) continue;
      if (!it->second.Intersect(window).IsEmpty()) {
        full[i] = 1;
        any = true;
      }
    }
    Database carry;
    Status status =
        any ? RunBand(window, &carry, &full, stats, gptr) : Status::Ok();
    chase_.FoldCounters(base, stats);
    FinishRunStats(start_time, guard, status, *db_, stats);
    return status;
  }

  // Reinstates checkpointed session state right after Init: the caller has
  // already loaded the snapshot's materialized database into db_; this
  // installs the log and watermark and reseeds the pending band so the next
  // operation behaves exactly as in the uninterrupted session. Over-seeding
  // pending coverage is sound (the delta union is idempotent and the sink
  // only records newly covered pieces); the band cache stays invalid, so
  // the first post-restore advance falls back to the full-store scan.
  Status AdoptState(std::vector<Fact> log, const Rational& watermark,
                    bool advanced) {
    if (watermark < cur_min_) {
      return Status::InvalidArgument(
          "snapshot watermark " + watermark.ToString() +
          " precedes the window minimum " + cur_min_.ToString());
    }
    inputs_ = std::move(log);
    watermark_ = watermark;
    advanced_any_ = advanced;
    pending_fresh_ = Database();
    auto above = Interval::Make(Bound::Open(watermark_), Bound::Infinite());
    for (const Fact& f : inputs_) {
      if (advanced_any_) {
        // Post-advance sessions only have pending input above the
        // watermark; everything at or below it is already derived-final.
        std::optional<Interval> part;
        if (above.has_value()) part = f.interval.Intersect(*above);
        if (part.has_value()) {
          pending_fresh_.InsertSet(f.predicate, f.args, IntervalSet(*part));
        }
      } else {
        // Before the first advance, pushed facts may lie anywhere; they all
        // must seed the first band.
        pending_fresh_.InsertSet(f.predicate, f.args,
                                 IntervalSet(f.interval));
      }
    }
    return Status::Ok();
  }

  const Rational& watermark() const { return watermark_; }
  const Rational& window_min() const { return cur_min_; }
  const std::vector<Fact>& input_log() const { return inputs_; }
  bool advanced() const { return advanced_any_; }
  bool needs_rebuild() const { return needs_rebuild_; }
  bool reach_unbounded() const { return reach_inf_; }
  const Rational& forward_reach() const { return reach_; }

 private:
  Status WalkMetric(const MetricAtom& m, Rational hi, bool hi_inf,
                    bool positive, size_t rule_index) {
    switch (m.kind()) {
      case MetricAtom::Kind::kRelational:
        rule_dilations_[rule_index].push_back(
            {m.atom().predicate, hi, hi_inf});
        if (positive) {
          if (hi_inf) reach_inf_ = true;
          else if (reach_ < hi) reach_ = hi;
        }
        return Status::Ok();
      case MetricAtom::Kind::kTruth:
      case MetricAtom::Kind::kFalsity:
        return Status::Ok();
      case MetricAtom::Kind::kUnary: {
        if (m.op() == MtlOp::kDiamondPlus || m.op() == MtlOp::kBoxPlus) {
          return Status::InvalidArgument(
              "rule " + std::to_string(rule_index) +
              ": future operators are not streaming-eligible (coverage "
              "below the watermark would not be final)");
        }
        const Interval& r = m.range();
        if (r.lo().infinite || r.lo().value < Rational(0)) {
          return Status::InvalidArgument(
              "rule " + std::to_string(rule_index) +
              ": operator range reaches into the future");
        }
        const bool ninf = hi_inf || r.hi().infinite;
        const Rational nhi = ninf ? hi : hi + r.hi().value;
        return WalkMetric(m.left(), nhi, ninf, positive, rule_index);
      }
      case MetricAtom::Kind::kBinary:
        return Status::InvalidArgument(
            "rule " + std::to_string(rule_index) +
            ": since/until are not streaming-eligible");
    }
    return Status::Internal("unknown metric atom kind");
  }

  // One band of the shared chase over `window`. A failed band leaves the
  // store at a sound round barrier that no longer matches a cold run at the
  // watermark (and the rollback may have dangled cached addresses), so the
  // next operation heals.
  Status RunBand(const Interval& window, Database* carry,
                 const std::vector<char>* full_rules, EngineStats* stats,
                 const ExecutionGuard* guard) {
    Status status =
        chase_.RunStrata(db_, window, carry, full_rules, stats, guard);
    if (!status.ok()) needs_rebuild_ = true;
    return status;
  }

  // Full cold rebuild from the input log - a batch band over
  // [window_min, watermark] on the session's own compiled state; run before
  // the next operation after a mid-operation failure left the store at a
  // round barrier.
  Status Heal() {
    db_->Clear();
    if (provenance_ != nullptr) provenance_->clear();
    chase_.ResetCaches();
    for (const Fact& f : inputs_) {
      db_->InsertSet(f.predicate, f.args, IntervalSet(f.interval));
    }
    ExecutionGuard guard(options_.deadline, options_.cancel_token);
    EngineStats heal_stats;
    const std::vector<char> all_rules(chase_.compiled.size(), 1);
    DMTL_RETURN_IF_ERROR(RunBand(Interval::Closed(cur_min_, watermark_),
                                 /*carry=*/nullptr, &all_rules, &heal_stats,
                                 guard.enabled() ? &guard : nullptr));
    band_cache_ = Database();
    band_cache_valid_ = false;
    needs_rebuild_ = false;
    return Status::Ok();
  }

  // Keeps only the (t, +inf) portions pending: everything at or below the
  // new watermark was consumed by the advance that just completed.
  void TrimPendingAbove(const Rational& t) {
    auto above = Interval::Make(Bound::Open(t), Bound::Infinite());
    Database kept;
    for (const auto& [pred, rel] : pending_fresh_.relations()) {
      for (const auto& [tuple, set] : rel.data()) {
        IntervalSet part = set.Intersect(*above);
        if (!part.IsEmpty()) kept.InsertSet(pred, tuple, part);
      }
    }
    pending_fresh_ = std::move(kept);
  }

  void ClampLogTo(const Rational& new_min) {
    std::vector<Fact> kept;
    kept.reserve(inputs_.size());
    for (const Fact& f : inputs_) {
      auto part = f.interval.Intersect(Interval::AtLeast(new_min));
      if (!part.has_value()) continue;
      Fact clamped = f;
      clamped.interval = *part;
      kept.push_back(std::move(clamped));
    }
    inputs_ = std::move(kept);
  }

  // Per-predicate frontier offset L(p): after a slide to new_min, stored
  // coverage of p may differ from a cold run only below new_min + L(p). A
  // body atom differing at x can flip the head anywhere in x + [lo, hi]
  // (positive and negated literals alike - the frontier tracks *may differ*,
  // not a direction), and every predicate differs below new_min itself, so
  // L(p) is the longest path into p over the literal dilations weighted by
  // hi. nullopt: a positive-weight cycle or an unbounded window lies
  // upstream, and all of p's stored coverage may differ.
  void ComputeFrontierOffsets() {
    // Dense predicate indices; in[v] lists v's literal dilations as
    // (body predicate, hi) edges.
    struct InEdge {
      size_t from;
      Rational weight;
      bool unbounded;
    };
    std::unordered_map<PredicateId, size_t> index;
    std::vector<PredicateId> preds;
    std::vector<std::vector<InEdge>> in;
    auto node = [&](PredicateId p) {
      auto [it, inserted] = index.try_emplace(p, preds.size());
      if (inserted) {
        preds.push_back(p);
        in.emplace_back();
      }
      return it->second;
    };
    const auto& rules = program_.rules();
    for (size_t i = 0; i < rules.size(); ++i) {
      const size_t head = node(rules[i].head.predicate);
      for (const LitDilation& d : rule_dilations_[i]) {
        const size_t from = node(d.pred);
        in[head].push_back({from, d.hi, d.hi_inf});
      }
    }

    // Tarjan's SCC walk over the in-edges completes each strongly connected
    // component after every component upstream of it. Weights are
    // non-negative, so a component's members share one offset, which is
    // unbounded when a member's edge is, when a positive-weight edge stays
    // inside the component (it closes a positive-weight cycle), or when an
    // upstream offset is.
    constexpr size_t kUnvisited = SIZE_MAX;
    std::vector<size_t> order(preds.size(), kUnvisited);
    std::vector<size_t> low(preds.size());
    std::vector<char> on_stack(preds.size(), 0);
    std::vector<size_t> stack;
    std::vector<std::optional<Rational>> offset(preds.size());
    size_t visited = 0;
    auto visit = [&](auto& self, size_t v) -> void {
      order[v] = low[v] = visited++;
      stack.push_back(v);
      on_stack[v] = 1;
      for (const InEdge& e : in[v]) {
        if (order[e.from] == kUnvisited) {
          self(self, e.from);
          low[v] = std::min(low[v], low[e.from]);
        } else if (on_stack[e.from]) {
          low[v] = std::min(low[v], order[e.from]);
        }
      }
      if (low[v] != order[v]) return;
      // v roots a component: the stack above v. Every on-stack predecessor
      // of a member is a member; every other one is settled.
      const size_t root = static_cast<size_t>(
          std::find(stack.begin(), stack.end(), v) - stack.begin());
      std::optional<Rational> reach = Rational(0);
      for (size_t i = root; i < stack.size() && reach.has_value(); ++i) {
        for (const InEdge& e : in[stack[i]]) {
          const bool internal = on_stack[e.from] != 0;
          if (e.unbounded || (internal && Rational(0) < e.weight) ||
              (!internal && !offset[e.from].has_value())) {
            reach.reset();
            break;
          }
          if (!internal && *reach < *offset[e.from] + e.weight) {
            reach = *offset[e.from] + e.weight;
          }
        }
      }
      for (size_t i = root; i < stack.size(); ++i) {
        offset[stack[i]] = reach;
        on_stack[stack[i]] = 0;
      }
      stack.resize(root);
    };
    for (size_t v = 0; v < preds.size(); ++v) {
      if (order[v] == kUnvisited) visit(visit, v);
    }
    for (size_t v = 0; v < preds.size(); ++v) {
      frontier_offset_.emplace(preds[v], offset[v]);
    }
  }

  // Where stored coverage may differ from a cold run over the clamped
  // inputs after a slide to new_min: (-inf, new_min + L(p)) per predicate,
  // clipped at the watermark (nothing is stored above it). Predicates no
  // rule mentions only lose their expired region.
  std::unordered_map<PredicateId, IntervalSet> ComputeFrontier(
      const Rational& new_min) const {
    auto region = [&](const std::optional<Rational>& offset) {
      if (offset.has_value() && new_min + *offset <= watermark_) {
        return IntervalSet(*Interval::Make(Bound::Infinite(),
                                           Bound::Open(new_min + *offset)));
      }
      return IntervalSet(Interval::AtMost(watermark_));
    };
    std::unordered_map<PredicateId, IntervalSet> frontier;
    for (const auto& [pred, offset] : frontier_offset_) {
      frontier.emplace(pred, region(offset));
    }
    for (const auto& [pred, rel] : db_->relations()) {
      (void)rel;
      frontier.emplace(pred, region(Rational(0)));
    }
    return frontier;
  }

  void PruneProvenance(
      const std::unordered_map<PredicateId, IntervalSet>& frontier) {
    std::vector<DerivationRecord> kept;
    kept.reserve(provenance_->size());
    for (const DerivationRecord& rec : *provenance_) {
      auto it = frontier.find(rec.predicate);
      if (it == frontier.end() || it->second.IsEmpty()) {
        kept.push_back(rec);
        continue;
      }
      IntervalSet remaining =
          IntervalSet(rec.piece).Subtract(it->second);
      for (const Interval& piece : remaining) {
        DerivationRecord r = rec;
        r.piece = piece;
        kept.push_back(std::move(r));
      }
    }
    *provenance_ = std::move(kept);
  }

  Program program_;
  Database* db_ = nullptr;
  EngineOptions options_;  // as given at Create (min/max untouched)
  Rational cur_min_;
  Rational watermark_;
  ChaseState chase_;  // the compiled program, kept across operations

  std::vector<std::vector<LitDilation>> rule_dilations_;
  // L(p) per rule-mentioned predicate (ComputeFrontierOffsets).
  std::unordered_map<PredicateId, std::optional<Rational>> frontier_offset_;
  Rational reach_;            // max forward reach R over positive atoms
  bool reach_inf_ = false;

  std::vector<Fact> inputs_;  // the log; clamped by retractions
  Database pending_fresh_;    // input fresh portions above the watermark
  // Stored coverage clipped to (watermark - reach, watermark]: the seed
  // band for the next advance, snapshotted from the previous advance's
  // carry so steady-state advances never scan the whole store. Invalid
  // after retraction or heal (those mutate coverage outside any carry).
  Database band_cache_;
  bool band_cache_valid_ = false;
  bool advanced_any_ = false;
  bool needs_rebuild_ = false;
  std::vector<DerivationRecord>* provenance_ = nullptr;
};

IncrementalMaterializer::IncrementalMaterializer() = default;
IncrementalMaterializer::~IncrementalMaterializer() = default;

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Create(const Program& program, Database* db,
                                const EngineOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("streaming requires a database");
  }
  std::unique_ptr<IncrementalMaterializer> out(new IncrementalMaterializer());
  out->impl_ = std::make_unique<Impl>(program, db, options);
  DMTL_RETURN_IF_ERROR(out->impl_->Init());
  return out;
}

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Restore(const Program& program, Database* db,
                                 const EngineOptions& options,
                                 std::vector<Fact> input_log,
                                 const Rational& watermark, bool advanced) {
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalMaterializer> out,
                        Create(program, db, options));
  DMTL_RETURN_IF_ERROR(
      out->impl_->AdoptState(std::move(input_log), watermark, advanced));
  return out;
}

Status IncrementalMaterializer::Push(const Fact& fact) {
  return impl_->Push(fact);
}
Status IncrementalMaterializer::Advance(const Rational& t,
                                        EngineStats* stats) {
  return impl_->Advance(t, stats);
}
Status IncrementalMaterializer::Retract(const Rational& new_min,
                                        EngineStats* stats) {
  return impl_->Retract(new_min, stats);
}
const Rational& IncrementalMaterializer::watermark() const {
  return impl_->watermark();
}
const Rational& IncrementalMaterializer::window_min() const {
  return impl_->window_min();
}
const std::vector<Fact>& IncrementalMaterializer::input_log() const {
  return impl_->input_log();
}
bool IncrementalMaterializer::advanced() const { return impl_->advanced(); }
bool IncrementalMaterializer::needs_rebuild() const {
  return impl_->needs_rebuild();
}
bool IncrementalMaterializer::reach_unbounded() const {
  return impl_->reach_unbounded();
}
const Rational& IncrementalMaterializer::forward_reach() const {
  return impl_->forward_reach();
}

}  // namespace dmtl
