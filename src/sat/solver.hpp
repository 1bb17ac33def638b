#pragma once
// A small but real CDCL SAT solver.
//
// MiniSat-lineage architecture (the same skeleton boolector drives through
// btor_add_sat/btor_sat): two-watched-literal propagation, first-UIP
// conflict clause learning, VSIDS-style activity decay with a binary-heap
// decision order, phase saving, Luby restarts, an assumption interface for
// incremental queries, and conflict/propagation budgets so callers can
// trade exactness for latency — the library's whole theme, applied to
// verification. The solver owns no encoding knowledge; sat::CnfBuilder
// turns AIGs into clauses.
//
// Everything is deterministic: same clauses + same assumptions + same
// budgets => same verdict, same model, bit for bit.

#include <cstdint>
#include <vector>

namespace lsml::sat {

/// Solver variable (0-based) and literal (2*var + sign), mirroring
/// aig::Lit so encoders translate with arithmetic, not tables.
using Var = std::uint32_t;
using Lit = std::uint32_t;

[[nodiscard]] inline constexpr Lit make_lit(Var v, bool negative) {
  return (v << 1) | static_cast<Lit>(negative);
}
[[nodiscard]] inline constexpr Var lit_var(Lit l) { return l >> 1; }
[[nodiscard]] inline constexpr bool lit_sign(Lit l) { return l & 1u; }
[[nodiscard]] inline constexpr Lit lit_not(Lit l) { return l ^ 1u; }

enum class Status { kSat, kUnsat, kUnknown };

/// Per-solve resource limits; 0 means unlimited. A solve that exhausts
/// either returns Status::kUnknown (never a wrong verdict).
struct Budget {
  std::int64_t max_conflicts = 0;
  std::int64_t max_propagations = 0;
};

/// Tightens `per_call` to what is left of `total` once `conflicts` and
/// `propagations` have been spent. Returns false when a total is used up:
/// the caller must not solve, since a zero field would mean unlimited.
bool cap_to_remaining(const Budget& total, std::uint64_t conflicts,
                      std::uint64_t propagations, Budget* per_call);

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t restarts = 0;
};

class Solver {
 public:
  Solver();

  /// Creates a fresh unassigned variable and returns it.
  Var new_var();
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(assigns_.size());
  }

  /// Adds a clause over existing variables. Duplicate literals are
  /// dropped and tautologies ignored; root-level-false literals are
  /// removed. Returns false when the clause makes the formula root-level
  /// UNSAT (the solver stays usable; solve() will report kUnsat).
  bool add_clause(std::vector<Lit> lits);

  /// False once the clause database is contradictory at the root level.
  [[nodiscard]] bool okay() const { return ok_; }

  /// Solves under the given assumptions (each forced true for this call
  /// only), within the budget. Incremental: clauses may be added between
  /// calls and everything learned is kept.
  Status solve(const std::vector<Lit>& assumptions = {},
               const Budget& budget = {});

  /// Value of `l` in the model of the last kSat answer.
  [[nodiscard]] bool model_value(Lit l) const {
    return (model_[lit_var(l)] ^ static_cast<std::uint8_t>(lit_sign(l))) == 0;
  }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

 private:
  // Assignment values: 0 = true, 1 = false, 2 = unassigned (so the value
  // of literal l under assignment v of its var is v ^ sign(l)).
  static constexpr std::uint8_t kTrue = 0;
  static constexpr std::uint8_t kFalse = 1;
  static constexpr std::uint8_t kUndef = 2;

  static constexpr std::uint32_t kNoReason = 0xffffffffu;

  struct Clause {
    std::vector<Lit> lits;
  };

  struct Watcher {
    std::uint32_t clause = 0;
    Lit blocker = 0;  ///< quick satisfied-check before touching the clause
  };

  [[nodiscard]] std::uint8_t value(Lit l) const {
    const std::uint8_t v = assigns_[lit_var(l)];
    return v == kUndef ? kUndef : v ^ static_cast<std::uint8_t>(lit_sign(l));
  }
  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  void attach_clause(std::uint32_t ci);
  void enqueue(Lit l, std::uint32_t reason);
  /// Runs unit propagation; returns the conflicting clause or kNoReason.
  std::uint32_t propagate();
  /// First-UIP analysis of `conflict`; fills the learned clause (asserting
  /// literal first) and the backtrack level.
  void analyze(std::uint32_t conflict, std::vector<Lit>* learned,
               std::uint32_t* backtrack_level);
  void cancel_until(std::uint32_t level);
  /// Highest-activity unassigned variable, or num_vars() when none.
  Var pick_branch_var();

  void var_bump_activity(Var v);
  void var_decay_activity();

  // Decision-order binary max-heap on activity.
  void heap_insert(Var v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  Var heap_pop();

  bool ok_ = true;
  std::vector<Clause> clauses_;            // problem + learned clauses
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<std::uint8_t> assigns_;      // indexed by var
  std::vector<std::uint8_t> phase_;        // saved polarity, indexed by var
  std::vector<std::uint32_t> level_;       // indexed by var
  std::vector<std::uint32_t> reason_;      // clause index or kNoReason
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;           // VSIDS, indexed by var
  double activity_inc_ = 1.0;
  std::vector<Var> heap_;                  // decision order
  std::vector<std::uint32_t> heap_pos_;    // var -> heap index, or npos
  std::vector<std::uint8_t> seen_;         // analyze() scratch

  std::vector<std::uint8_t> model_;        // last SAT assignment
  SolverStats stats_;
};

}  // namespace lsml::sat
