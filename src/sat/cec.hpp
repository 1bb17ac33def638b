#pragma once
// SAT-based combinational equivalence checking (CEC).
//
// cec(a, b) strashes both circuits into one AIG over shared primary inputs,
// so logic common to both merges structurally. It then sweeps that miter
// with sat::fraig, which merges nodes only on UNSAT proofs: an output pair
// landing on one literal is proved equal. Only the pairs left open go to
// one final miter solve, which asks whether any input makes a pair differ.
// UNSAT proves equivalence; SAT yields a concrete counterexample cube; a
// blown budget returns kUndecided — never a wrong verdict. This is the
// exactness the paper trades away, made checkable: any optimized circuit
// can be certified against the raw learner output it came from.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "data/dataset.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

enum class CecStatus { kEquivalent, kNotEquivalent, kUndecided };

/// Resource limits over the whole check (every sweep probe plus the final
/// solve); 0 = unlimited. Each sweep probe runs under min(its own budget,
/// what is left), the final solve under what the sweep left.
struct CecLimits {
  std::int64_t conflict_budget = 100000;
  std::int64_t propagation_budget = 0;
};

struct CecResult {
  CecStatus status = CecStatus::kUndecided;
  /// kNotEquivalent only: one value per PI on which the circuits differ.
  std::vector<std::uint8_t> counterexample;
  /// kNotEquivalent only: index of an output the cube distinguishes.
  std::size_t failing_output = 0;
  /// Solver effort: `conflicts` and `propagations` are the sweep's totals
  /// plus the final solve's, so conflicts <= conflict_budget when one is
  /// set. The other counters cover the final solve only.
  SolverStats solver_stats;
};

/// Checks functional equivalence of `a` and `b`. Both circuits must have
/// the same number of primary inputs and outputs (throws
/// std::invalid_argument otherwise — a shape mismatch is a usage error,
/// not an inequivalence).
CecResult cec(const aig::Aig& a, const aig::Aig& b,
              const CecLimits& limits = {});

/// Converts a CEC counterexample into a one-row, Dataset-compatible
/// minterm labeled by `oracle`'s output on that cube, so a NOT_EQUIVALENT
/// verdict replays directly through the existing simulation paths
/// (Aig::simulate over Dataset::column_ptrs).
data::Dataset cex_to_minterm(const std::vector<std::uint8_t>& counterexample,
                             const aig::Aig& oracle, std::size_t output = 0);

/// Appends the counterexample row (labeled by `oracle`) to `out`, growing
/// a replayable cube dump across repeated CEC calls. `out` must be empty
/// or have matching input count.
void append_cex_minterm(const std::vector<std::uint8_t>& counterexample,
                        const aig::Aig& oracle, data::Dataset* out,
                        std::size_t output = 0);

}  // namespace lsml::sat
