#pragma once
// Irredundant sum-of-products computation (Minato-Morreale ISOP).
//
// Given an incompletely specified function as (onset, careset don't-care
// upper bound), produces a cube cover F with on <= F <= on|dc that is
// irredundant by construction. This is the standard way to resynthesize a
// small cut or LUT into two-level logic before mapping it to AIG gates.
//
// There is one recursion. Functions of at most 6 variables run in a word
// kernel on bare 64-bit tables with no heap allocation (isop_word; the cut
// rewriter calls it directly). The TruthTable entry points split the
// variables above 6 generically and hand each remaining cofactor, and any
// table of at most 6 variables, to that same kernel.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "tt/truth_table.hpp"

namespace lsml::tt {

/// An irredundant cover has at most one cube per onset minterm, so a cover
/// of a 6-variable function never exceeds 64 cubes.
inline constexpr int kMaxWordCubes = 64;

/// Result of isop_word: the cubes in the same order tt::isop returns them.
struct WordCover {
  std::array<SmallCube, kMaxWordCubes> cubes;
  int num_cubes = 0;
  std::uint64_t function = 0;  ///< word table of the cover itself

  [[nodiscard]] std::span<const SmallCube> view() const {
    return {cubes.data(), static_cast<std::size_t>(num_cubes)};
  }
  /// sop_gate_cost of the cover.
  [[nodiscard]] int gate_cost() const;
};

/// ISOP of word tables (see truth_table.hpp): a cover of some f with
/// on <= f <= on | dc. Same recursion, cube order and result as
/// isop(TruthTable, TruthTable) on the same function.
WordCover isop_word(std::uint64_t on, std::uint64_t dc = 0);

/// Computes an irredundant SOP for any f with on <= f <= on | dc.
/// `on` and `dc` must be disjoint is NOT required (dc is treated as
/// "additional allowed minterms"); both must have the same variable count.
std::vector<SmallCube> isop(const TruthTable& on, const TruthTable& dc);

/// Convenience: ISOP of a completely specified function.
std::vector<SmallCube> isop(const TruthTable& f);

/// Number of AND2 gates of the naive AND/OR tree realization of a cover
/// (literals-1 per cube plus cubes-1 for the OR). Useful as a cost proxy.
int sop_gate_cost(const std::vector<SmallCube>& cubes);

}  // namespace lsml::tt
