#include "sat/cnf.hpp"

namespace lsml::sat {

Lit add_xor(Solver& solver, Lit a, Lit b) {
  const Lit t = make_lit(solver.new_var(), false);
  solver.add_clause({lit_not(t), a, b});
  solver.add_clause({lit_not(t), lit_not(a), lit_not(b)});
  solver.add_clause({t, lit_not(a), b});
  solver.add_clause({t, a, lit_not(b)});
  return t;
}

Lit add_or(Solver& solver, const std::vector<Lit>& lits) {
  const Lit t = make_lit(solver.new_var(), false);
  std::vector<Lit> forward;
  forward.reserve(lits.size() + 1);
  forward.push_back(lit_not(t));
  for (const Lit l : lits) {
    forward.push_back(l);
    solver.add_clause({t, lit_not(l)});
  }
  solver.add_clause(std::move(forward));
  return t;
}

CnfBuilder::CnfBuilder(Solver& solver, const aig::Aig& g)
    : solver_(solver), aig_(g) {
  const_var_ = solver_.new_var();
  solver_.add_clause({make_lit(const_var_, true)});  // constant is false
  pi_vars_.reserve(g.num_pis());
  for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
    pi_vars_.push_back(solver_.new_var());
  }
}

Lit CnfBuilder::lit(aig::Lit l) {
  if (node_lit_.size() < aig_.num_nodes()) {
    const std::size_t old = node_lit_.size();
    node_lit_.resize(aig_.num_nodes(), kUnmapped);
    if (old == 0) {
      node_lit_[0] = make_lit(const_var_, false);
      for (std::uint32_t i = 0; i < aig_.num_pis(); ++i) {
        node_lit_[i + 1] = make_lit(pi_vars_[i], false);
      }
    }
  }
  const std::uint32_t root = aig::lit_var(l);
  if (node_lit_[root] == kUnmapped) {
    // Iterative cone walk (fanins precede their gates, but only nodes in
    // this literal's cone are translated).
    std::vector<std::uint32_t> todo{root};
    while (!todo.empty()) {
      const std::uint32_t v = todo.back();
      if (node_lit_[v] != kUnmapped) {
        todo.pop_back();
        continue;
      }
      const aig::Node& node = aig_.node(v);
      const std::uint32_t v0 = aig::lit_var(node.fanin0);
      const std::uint32_t v1 = aig::lit_var(node.fanin1);
      if (node_lit_[v0] == kUnmapped || node_lit_[v1] == kUnmapped) {
        if (node_lit_[v0] == kUnmapped) {
          todo.push_back(v0);
        }
        if (node_lit_[v1] == kUnmapped) {
          todo.push_back(v1);
        }
        continue;
      }
      todo.pop_back();
      const Lit a =
          node_lit_[v0] ^ static_cast<Lit>(aig::lit_compl(node.fanin0));
      const Lit b =
          node_lit_[v1] ^ static_cast<Lit>(aig::lit_compl(node.fanin1));
      const Lit n = make_lit(solver_.new_var(), false);
      // n <-> a & b.
      solver_.add_clause({lit_not(n), a});
      solver_.add_clause({lit_not(n), b});
      solver_.add_clause({n, lit_not(a), lit_not(b)});
      node_lit_[v] = n;
    }
  }
  return node_lit_[root] ^ static_cast<Lit>(aig::lit_compl(l));
}

std::vector<Lit> CnfBuilder::output_lits() {
  std::vector<Lit> outs;
  outs.reserve(aig_.num_outputs());
  for (const aig::Lit o : aig_.outputs()) {
    outs.push_back(lit(o));
  }
  return outs;
}

}  // namespace lsml::sat
