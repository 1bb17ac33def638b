#include "sat/cec.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/rng.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "sat/fraig.hpp"

namespace lsml::sat {

namespace {

/// Seed of the sweep's simulation patterns: fixed, so a check is a pure
/// function of its inputs and limits.
constexpr std::uint64_t kSweepSeed = 0x5eedcec;

/// Indices of the output pairs (i, n + i) of a 2n-output miter that do
/// not share one literal, i.e. are not yet proved equal.
std::vector<std::size_t> open_pairs(const aig::Aig& miter) {
  const std::size_t n = miter.num_outputs() / 2;
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < n; ++i) {
    if (miter.output(i) != miter.output(n + i)) {
      open.push_back(i);
    }
  }
  return open;
}

}  // namespace

CecResult cec(const aig::Aig& a, const aig::Aig& b, const CecLimits& limits) {
  if (a.num_pis() != b.num_pis()) {
    throw std::invalid_argument("sat::cec: PI counts differ (" +
                                std::to_string(a.num_pis()) + " vs " +
                                std::to_string(b.num_pis()) + ")");
  }
  if (a.num_outputs() != b.num_outputs()) {
    throw std::invalid_argument("sat::cec: output counts differ (" +
                                std::to_string(a.num_outputs()) + " vs " +
                                std::to_string(b.num_outputs()) + ")");
  }
  CecResult result;
  // One miter over shared PIs: outputs 0..n-1 are a's, n..2n-1 are b's.
  // Logic common to both merges through structural hashing.
  aig::Aig miter(a.num_pis());
  for (const aig::Aig* g : {&a, &b}) {
    for (std::size_t i = 0; i < g->num_outputs(); ++i) {
      miter.add_output(aig::append_aig(miter, *g, i));
    }
  }
  if (open_pairs(miter).empty()) {
    result.status = CecStatus::kEquivalent;
    return result;
  }

  // Sweep: fraig merges only on UNSAT proofs, so every output pair that
  // lands on one literal is proved equal.
  Budget total;
  total.max_conflicts = limits.conflict_budget;
  total.max_propagations = limits.propagation_budget;
  FraigStats sweep;
  aig::Aig swept;
  {
    obs::ScopedSpan span("cec.sweep", "sat");
    FraigOptions options;
    options.total = total;
    core::Rng rng(kSweepSeed);
    swept = fraig(miter.cleanup(), options, rng, &sweep);
  }
  result.solver_stats.conflicts = sweep.conflicts;
  result.solver_stats.propagations = sweep.propagations;
  const std::vector<std::size_t> open = open_pairs(swept);
  if (open.empty()) {
    result.status = CecStatus::kEquivalent;
    return result;
  }

  // Residual miter over the unresolved pairs, under what is left.
  Budget budget;
  if (!cap_to_remaining(total, sweep.conflicts, sweep.propagations,
                        &budget)) {
    result.status = CecStatus::kUndecided;
    return result;
  }
  Solver solver;
  CnfBuilder cnf(solver, swept);
  std::vector<Lit> diffs;
  diffs.reserve(open.size());
  for (const std::size_t i : open) {
    diffs.push_back(add_xor(solver, cnf.lit(swept.output(i)),
                            cnf.lit(swept.output(a.num_outputs() + i))));
  }
  const Lit mismatch = add_or(solver, diffs);
  const Status status = solver.solve({mismatch}, budget);
  result.solver_stats = solver.stats();
  result.solver_stats.conflicts += sweep.conflicts;
  result.solver_stats.propagations += sweep.propagations;
  if (status == Status::kUnsat) {
    result.status = CecStatus::kEquivalent;
    return result;
  }
  if (status == Status::kUnknown) {
    result.status = CecStatus::kUndecided;
    return result;
  }
  result.status = CecStatus::kNotEquivalent;
  result.counterexample.resize(a.num_pis());
  for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
    result.counterexample[i] =
        solver.model_value(cnf.pi_lit(i)) ? std::uint8_t{1} : std::uint8_t{0};
  }
  // Identify a distinguishing output by replaying the cube; a model that
  // fails to distinguish any output would mean the solver or encoding is
  // unsound, which must never pass silently.
  const std::vector<bool> va = a.eval_row(result.counterexample);
  const std::vector<bool> vb = b.eval_row(result.counterexample);
  bool found = false;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (va[i] != vb[i]) {
      result.failing_output = i;
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::logic_error(
        "sat::cec: SAT model does not distinguish the circuits "
        "(solver or encoding bug)");
  }
  return result;
}

data::Dataset cex_to_minterm(const std::vector<std::uint8_t>& counterexample,
                             const aig::Aig& oracle, std::size_t output) {
  data::Dataset row(counterexample.size(), 1);
  for (std::size_t i = 0; i < counterexample.size(); ++i) {
    row.set_input(0, i, counterexample[i] != 0);
  }
  row.set_label(0, oracle.eval_row(counterexample)[output]);
  return row;
}

void append_cex_minterm(const std::vector<std::uint8_t>& counterexample,
                        const aig::Aig& oracle, data::Dataset* out,
                        std::size_t output) {
  data::Dataset row = cex_to_minterm(counterexample, oracle, output);
  if (out->num_rows() == 0) {
    *out = std::move(row);
    return;
  }
  *out = out->merged_with(row);
}

}  // namespace lsml::sat
