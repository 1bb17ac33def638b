#include "tt/isop.hpp"

#include <algorithm>
#include <cassert>

namespace lsml::tt {

namespace {

bool word_depends_on(std::uint64_t w, int var) {
  return word_cofactor(w, var, false) != word_cofactor(w, var, true);
}

// Recursive Minato-Morreale on word tables. Appends a cover of some g with
// on <= g <= upper to `cover`, splitting only variables below `var`, and
// returns g.
std::uint64_t isop_word_rec(std::uint64_t on, std::uint64_t upper, int var,
                            WordCover* cover) {
  if (on == 0) {
    return 0;
  }
  if (upper == ~0ULL) {
    assert(cover->num_cubes < kMaxWordCubes);
    cover->cubes[static_cast<std::size_t>(cover->num_cubes++)] = SmallCube{};
    return ~0ULL;
  }
  // Find the topmost variable that matters.
  int v = var - 1;
  while (v >= 0 && !word_depends_on(on, v) && !word_depends_on(upper, v)) {
    --v;
  }
  assert(v >= 0 && "non-trivial function must depend on something");

  const std::uint64_t on0 = word_cofactor(on, v, false);
  const std::uint64_t on1 = word_cofactor(on, v, true);
  const std::uint64_t up0 = word_cofactor(upper, v, false);
  const std::uint64_t up1 = word_cofactor(upper, v, true);

  // Cubes that must contain literal !v: on0 minterms not allowed under v=1.
  const int first0 = cover->num_cubes;
  const std::uint64_t res0 = isop_word_rec(on0 & ~up1, up0, v, cover);
  // Cubes that must contain literal v.
  const int first1 = cover->num_cubes;
  const std::uint64_t res1 = isop_word_rec(on1 & ~up0, up1, v, cover);
  // Remaining onset handled by cubes independent of v.
  const int first2 = cover->num_cubes;
  const std::uint64_t res2 = isop_word_rec((on0 & ~res0) | (on1 & ~res1),
                                           up0 & up1, v, cover);

  for (int i = first0; i < first1; ++i) {
    cover->cubes[static_cast<std::size_t>(i)].neg |= 1u << v;
  }
  for (int i = first1; i < first2; ++i) {
    cover->cubes[static_cast<std::size_t>(i)].pos |= 1u << v;
  }
  const std::uint64_t tv = kWordVarMask[v];
  return (res0 & ~tv) | (res1 & tv) | res2;
}

// The same recursion on TruthTables. It splits the variables from 6 up;
// once the topmost variable that matters is below 6, every word of `on`
// and `upper` is the same and the word kernel finishes. Appends the cover
// to `cubes` and returns its table.
TruthTable isop_rec(const TruthTable& on, const TruthTable& upper, int var,
                    std::vector<SmallCube>* cubes) {
  const int num_vars = on.num_vars();
  if (on.is_const0()) {
    return TruthTable::constant(num_vars, false);
  }
  if (upper.is_const1()) {
    cubes->push_back(SmallCube{});
    return TruthTable::constant(num_vars, true);
  }
  int v = var - 1;
  while (v >= kWordVars && !on.depends_on(v) && !upper.depends_on(v)) {
    --v;
  }
  if (v < kWordVars) {
    const int word_vars = std::min(num_vars, kWordVars);
    const WordCover cover =
        isop_word(word_replicate(on.words()[0], word_vars),
                  word_replicate(upper.words()[0], word_vars));
    const auto view = cover.view();
    cubes->insert(cubes->end(), view.begin(), view.end());
    return TruthTable::from_word(num_vars, cover.function);
  }

  const TruthTable on0 = on.cofactor(v, false);
  const TruthTable on1 = on.cofactor(v, true);
  const TruthTable up0 = upper.cofactor(v, false);
  const TruthTable up1 = upper.cofactor(v, true);

  const std::size_t first0 = cubes->size();
  const TruthTable res0 = isop_rec(on0 & ~up1, up0, v, cubes);
  const std::size_t first1 = cubes->size();
  const TruthTable res1 = isop_rec(on1 & ~up0, up1, v, cubes);
  const std::size_t first2 = cubes->size();
  const TruthTable res2 =
      isop_rec((on0 & ~res0) | (on1 & ~res1), up0 & up1, v, cubes);

  for (std::size_t i = first0; i < first1; ++i) {
    (*cubes)[i].neg |= 1u << v;
  }
  for (std::size_t i = first1; i < first2; ++i) {
    (*cubes)[i].pos |= 1u << v;
  }
  const TruthTable tv = TruthTable::var(num_vars, v);
  return (res0 & ~tv) | (res1 & tv) | res2;
}

int cover_gate_cost(std::span<const SmallCube> cubes) {
  if (cubes.empty()) {
    return 0;
  }
  int cost = static_cast<int>(cubes.size()) - 1;
  for (const auto& cube : cubes) {
    const int lits = cube.num_literals();
    if (lits > 0) {
      cost += lits - 1;
    }
  }
  return cost;
}

}  // namespace

int WordCover::gate_cost() const { return cover_gate_cost(view()); }

WordCover isop_word(std::uint64_t on, std::uint64_t dc) {
  WordCover cover;
  cover.function = isop_word_rec(on, on | dc, kWordVars, &cover);
  // Correctness: on <= cover <= on | dc.
  assert((on & ~cover.function) == 0);
  assert((cover.function & ~(on | dc)) == 0);
  return cover;
}

std::vector<SmallCube> isop(const TruthTable& on, const TruthTable& dc) {
  assert(on.num_vars() == dc.num_vars());
  std::vector<SmallCube> cover;
  [[maybe_unused]] const TruthTable result =
      isop_rec(on, on | dc, on.num_vars(), &cover);
  // Correctness: on <= result <= on | dc.
  assert((on & ~result).is_const0());
  assert((result & ~(on | dc)).is_const0());
  return cover;
}

std::vector<SmallCube> isop(const TruthTable& f) {
  return isop(f, TruthTable::constant(f.num_vars(), false));
}

int sop_gate_cost(const std::vector<SmallCube>& cubes) {
  return cover_gate_cost(cubes);
}

}  // namespace lsml::tt
