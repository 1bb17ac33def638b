#include "sat/fraig.hpp"

#include <unordered_map>
#include <vector>

#include "aig/sim_engine.hpp"
#include "core/bits.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

namespace {

/// Candidate-class bookkeeping over the *old* circuit's simulation
/// signatures. Signatures are compared up to complement: the phase bit
/// says whether the stored signature must be flipped to match the class
/// key, so x and ~x land in the same class. Signatures live in the
/// SimEngine's word arena and are read in place — refinement re-sweeps
/// into the same storage instead of materializing per-node BitVecs.
/// rows_ is kept a multiple of 64, so word-wise compares see no tail.
class SignatureIndex {
 public:
  SignatureIndex(const aig::Aig& g, std::size_t rows, core::Rng& rng)
      : engine_(g), rows_(rows) {
    patterns_.reserve(g.num_pis());
    for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
      patterns_.emplace_back(rows_);
      patterns_.back().randomize(rng);
    }
    resimulate();
  }

  /// Phase of `v`: whether its signature is complemented relative to the
  /// class-canonical form (first bit zero).
  [[nodiscard]] bool phase(std::uint32_t v) const {
    return rows_ > 0 && (engine_.row(v)[0] & 1ULL) != 0;
  }

  [[nodiscard]] std::uint64_t key(std::uint32_t v) const {
    const std::uint64_t* s = engine_.row(v);
    const std::uint64_t flip = phase(v) ? ~0ULL : 0ULL;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t w = 0; w < engine_.words_per_row(); ++w) {
      h = core::hash_combine(h, s[w] ^ flip);
    }
    return h;
  }

  /// Exact signature equality up to complement (guards hash collisions).
  [[nodiscard]] bool equal(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t* sa = engine_.row(a);
    const std::uint64_t* sb = engine_.row(b);
    const std::uint64_t flip = phase(a) == phase(b) ? 0ULL : ~0ULL;
    for (std::size_t w = 0; w < engine_.words_per_row(); ++w) {
      if (sa[w] != (sb[w] ^ flip)) {
        return false;
      }
    }
    return true;
  }

  /// Queues one counterexample row (one value per PI) for the next
  /// refinement batch.
  void add_pattern(const std::vector<std::uint8_t>& row) {
    pending_.push_back(row);
  }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// Folds all pending counterexamples into the pattern set (padding the
  /// new 64-bit block by repeating the first pending row keeps rows_ a
  /// multiple of 64, so word-wise signature compares never see tail
  /// garbage) and recomputes every signature.
  void refine() {
    if (pending_.empty()) {
      return;
    }
    const std::size_t added = (pending_.size() + 63) / 64 * 64;
    std::vector<core::BitVec> grown;
    grown.reserve(patterns_.size());
    for (std::uint32_t i = 0; i < patterns_.size(); ++i) {
      core::BitVec column(rows_ + added);
      for (std::size_t w = 0; w < patterns_[i].num_words(); ++w) {
        column.words()[w] = patterns_[i].word(w);
      }
      for (std::size_t r = 0; r < added; ++r) {
        const auto& row = pending_[r < pending_.size() ? r : 0];
        column.set(rows_ + r, row[i] != 0);
      }
      grown.push_back(std::move(column));
    }
    patterns_ = std::move(grown);
    rows_ += added;
    pending_.clear();
    resimulate();
  }

 private:
  void resimulate() {
    std::vector<const core::BitVec*> ptrs;
    ptrs.reserve(patterns_.size());
    for (const auto& p : patterns_) {
      ptrs.push_back(&p);
    }
    engine_.run(ptrs);
  }

  aig::SimEngine engine_;
  std::size_t rows_;
  std::vector<core::BitVec> patterns_;
  std::vector<std::vector<std::uint8_t>> pending_;
};

}  // namespace

aig::Aig fraig(const aig::Aig& in, const FraigOptions& options,
               core::Rng& rng, FraigStats* stats) {
  FraigStats local;
  local.ands_in = in.num_ands();
  const auto publish = [&](const aig::Aig& out) {
    local.ands_out = out.num_ands();
    if (stats != nullptr) {
      *stats = local;
    }
  };
  if (in.num_ands() == 0 || in.num_pis() == 0) {
    aig::Aig out = in.cleanup();
    publish(out);
    return out;
  }

  const std::size_t rows =
      (options.sim_patterns < 64 ? 64 : (options.sim_patterns + 63) / 64 * 64);
  SignatureIndex index(in, rows, rng);

  // Two-level strash: redundant AND nodes (contradiction / subsumption /
  // resemblance across grandchildren) fold structurally instead of
  // costing a signature class and a SAT probe.
  aig::Aig out(in.num_pis(), aig::Aig::StrashMode::kTwoLevel);
  Solver solver;
  CnfBuilder cnf(solver, out);

  // old var -> literal over `out` computing the same function of the PIs.
  std::vector<aig::Lit> map(in.num_nodes(), aig::kLitFalse);
  for (std::uint32_t i = 0; i < in.num_pis(); ++i) {
    map[i + 1] = out.pi(i);
  }

  // Classes start seeded with the constant and the PIs, so nodes that
  // collapse to an input or a constant merge like any other equivalence.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  std::vector<std::uint32_t> representatives;
  const auto add_representative = [&](std::uint32_t v) {
    buckets[index.key(v)].push_back(v);
    representatives.push_back(v);
  };
  const auto rebuild_buckets = [&] {
    buckets.clear();
    for (const std::uint32_t v : representatives) {
      buckets[index.key(v)].push_back(v);
    }
  };
  for (std::uint32_t v = 0; v <= in.num_pis(); ++v) {
    add_representative(v);
  }

  std::vector<std::uint8_t> cex_row(in.num_pis());
  for (std::uint32_t v = in.num_pis() + 1; v < in.num_nodes(); ++v) {
    const aig::Node& node = in.node(v);
    const aig::Lit nl = out.and2(
        aig::lit_notc(map[aig::lit_var(node.fanin0)],
                      aig::lit_compl(node.fanin0)),
        aig::lit_notc(map[aig::lit_var(node.fanin1)],
                      aig::lit_compl(node.fanin1)));
    bool merged = false;
    bool give_up = false;
    std::uint32_t probes = 0;
    bool rescan = true;
    while (rescan && !merged && !give_up) {
      rescan = false;
      const auto it = buckets.find(index.key(v));
      if (it == buckets.end()) {
        break;
      }
      for (const std::uint32_t c : it->second) {
        if (!index.equal(v, c)) {
          continue;  // hash collision or an already-refined split
        }
        const aig::Lit cand =
            aig::lit_notc(map[c], index.phase(v) != index.phase(c));
        if (cand == nl) {
          // Structural hashing already unified them; fold v into the
          // class without a new representative.
          map[v] = nl;
          merged = true;
          break;
        }
        Budget budget;
        budget.max_conflicts = options.conflict_budget;
        if (probes++ >= options.max_pair_probes ||
            !cap_to_remaining(options.total, solver.stats().conflicts,
                              solver.stats().propagations, &budget)) {
          give_up = true;
          break;
        }
        const Lit probe = add_xor(solver, cnf.lit(nl), cnf.lit(cand));
        ++local.sat_calls;
        const Status verdict = solver.solve({probe}, budget);
        if (verdict == Status::kUnsat) {
          map[v] = cand;
          merged = true;
          ++local.proved;
          break;
        }
        if (verdict == Status::kUnknown) {
          ++local.undecided;
          give_up = true;  // keep the node; the merge stays unproven
          break;
        }
        // SAT: a concrete input separating the pair. Feed it back; once
        // a 64-row block accumulates, refine every signature and rescan
        // this node's (possibly split) class.
        ++local.disproved;
        for (std::uint32_t i = 0; i < in.num_pis(); ++i) {
          cex_row[i] = solver.model_value(cnf.pi_lit(i)) ? 1 : 0;
        }
        index.add_pattern(cex_row);
        ++local.cex_patterns;
        if (index.pending() >= 64) {
          index.refine();
          rebuild_buckets();
          rescan = true;
          break;
        }
      }
    }
    if (merged) {
      continue;  // map[v] set (or nl already equals the representative)
    }
    map[v] = nl;
    add_representative(v);
  }

  for (const aig::Lit o : in.outputs()) {
    out.add_output(
        aig::lit_notc(map[aig::lit_var(o)], aig::lit_compl(o)));
  }
  local.conflicts = solver.stats().conflicts;
  local.propagations = solver.stats().propagations;
  aig::Aig cleaned = out.cleanup();
  publish(cleaned);
  return cleaned;
}

}  // namespace lsml::sat
