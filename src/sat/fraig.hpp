#pragma once
// Simulation-guided SAT sweeping (fraiging).
//
// The strongest classical size reduction the synth:: layer offers: random
// 64-way simulation partitions nodes into candidate equivalence classes
// (signatures equal up to complement), and a budgeted CDCL solver refines
// them — UNSAT merges the node onto its class representative, SAT yields
// a counterexample pattern that splits classes, and a blown budget keeps
// the node (never an unsound merge). The output circuit is therefore
// always function-equivalent to the input; sat::cec can certify it.
//
// Deterministic: (input, options, rng state) fully determine the result.

#include <cstdint>

#include "aig/aig.hpp"
#include "core/rng.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

struct FraigOptions {
  /// Initial random simulation patterns (rounded up to a multiple of 64).
  std::size_t sim_patterns = 2048;
  /// Conflict budget per SAT probe; 0 = unlimited (exact sweeping).
  std::int64_t conflict_budget = 1000;
  /// Budget over all probes together (0 fields = unlimited). Each probe
  /// runs under min(its own budget, what is left); once a total is spent,
  /// the remaining nodes are kept unprobed (structural merges still
  /// happen).
  Budget total;
  /// Candidate representatives probed per node before giving up, bounding
  /// worst-case SAT effort on large near-equivalence classes.
  std::uint32_t max_pair_probes = 16;
};

struct FraigStats {
  std::uint64_t sat_calls = 0;
  std::uint64_t proved = 0;     ///< UNSAT probes: nodes merged
  std::uint64_t disproved = 0;  ///< SAT probes: counterexamples found
  std::uint64_t undecided = 0;  ///< budget-limited probes: nodes kept
  std::uint32_t cex_patterns = 0;  ///< counterexample rows fed back
  std::uint64_t conflicts = 0;     ///< solver conflicts over all probes
  std::uint64_t propagations = 0;  ///< solver propagations over all probes
  std::uint32_t ands_in = 0;
  std::uint32_t ands_out = 0;
};

/// Sweeps `in` and returns the (cleaned-up) reduced circuit. `rng` seeds
/// the simulation patterns only.
aig::Aig fraig(const aig::Aig& in, const FraigOptions& options,
               core::Rng& rng, FraigStats* stats = nullptr);

}  // namespace lsml::sat
