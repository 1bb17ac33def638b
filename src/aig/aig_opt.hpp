#pragma once
// AIG optimization passes.
//
// Stand-in for the ABC `resyn2`-style cleanup every team ran on their
// synthesized circuits: tree balancing (depth), cut-based rewriting via
// ISOP resynthesis (size), and dangling-node removal. All passes are
// verified to preserve functionality in the test suite.

#include "aig/aig.hpp"

namespace lsml::aig {

/// Depth-oriented pass: rebuilds maximal AND trees as balanced trees.
Aig balance(const Aig& in);

/// Size-oriented pass: for every node, enumerates k-input cuts, evaluates
/// an ISOP-based resynthesis of the cut function and applies it when the
/// estimated gain (MFFC size minus new cost) is positive. `cut_size` is
/// clamped to [2, 6]: a cut function is a 64-bit word table, merged cuts
/// carry their fanins' tables over by variable stretching, and each cut
/// is costed by the allocation-free word ISOP (tt::isop_word). Only the
/// applied cuts go through the TruthTable path (from_truth_table). Larger
/// cuts behave like ABC's refactor, smaller like its rewrite.
Aig rewrite(const Aig& in, int cut_size = 4, int cuts_per_node = 8);

/// Full pipeline: iterates cleanup/balance/rewrite until no improvement.
/// Never returns a larger AIG than the cleaned-up input. Low-level helper;
/// learners and portfolios go through synth::PassManager instead, which
/// adds scripts, budgets, and per-pass stats on top of these passes.
Aig optimize(const Aig& in, int max_rounds = 3);

}  // namespace lsml::aig
