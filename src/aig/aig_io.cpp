#include "aig/aig_io.hpp"

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace lsml::aig {

namespace {

/// Bytes left in `is` past its read position, or -1 when the stream cannot
/// seek (a pipe).
std::streamoff bytes_left(std::istream& is) {
  std::streambuf* buf = is.rdbuf();
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) {
    return -1;
  }
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  return end == std::streampos(-1) ? -1 : end - here;
}

}  // namespace

void write_aag(const Aig& aig, std::ostream& os) {
  // A default/moved-from Aig can have zero nodes (not even the constant);
  // num_nodes() - 1 and num_ands() would underflow to 0xFFFFFFFF and emit
  // garbage. Such an AIG is written as the empty "aag 0 0 0 0 0" module.
  const bool degenerate = aig.num_nodes() == 0;
  const std::uint32_t m =
      degenerate ? 0 : aig.num_nodes() - 1;  // max variable index
  const std::uint32_t i = degenerate ? 0 : aig.num_pis();
  const std::uint32_t a = degenerate ? 0 : aig.num_ands();
  os << "aag " << m << ' ' << i << " 0 " << aig.num_outputs() << ' ' << a
     << '\n';
  for (std::uint32_t k = 0; k < i; ++k) {
    os << aig.pi(k) << '\n';
  }
  for (Lit out : aig.outputs()) {
    os << out << '\n';
  }
  for (std::uint32_t v = i + 1; v <= m; ++v) {
    const Node& n = aig.node(v);
    os << make_lit(v, false) << ' ' << n.fanin0 << ' ' << n.fanin1 << '\n';
  }
}

void write_aag_file(const Aig& aig, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  write_aag(aig, os);
}

Aig read_aag(std::istream& is) {
  if (bytes_left(is) < 0) {
    // A pipe cannot say how much text follows; buffer it so the header
    // check below can.
    std::istringstream buffered(
        std::string(std::istreambuf_iterator<char>(is), {}));
    return read_aag(buffered);
  }
  std::string magic;
  std::uint32_t m = 0;
  std::uint32_t i = 0;
  std::uint32_t l = 0;
  std::uint32_t o = 0;
  std::uint32_t a = 0;
  if (!(is >> magic >> m >> i >> l >> o >> a) || magic != "aag") {
    throw std::runtime_error("read_aag: bad header");
  }
  if (l != 0) {
    throw std::runtime_error("read_aag: latches not supported");
  }
  if (static_cast<std::uint64_t>(i) + a != m) {
    throw std::runtime_error("read_aag: non-contiguous variable numbering");
  }
  // 2M+1 must fit a literal and stay below the undefined-variable marker.
  constexpr std::uint32_t kMaxVar = 0x7ffffffeu;
  if (m > kMaxVar) {
    throw std::runtime_error("read_aag: too many variables");
  }
  // Nothing is sized from the header before it is checked against the
  // text: each of the I + O + 3A literals after it takes a digit and the
  // whitespace before it, so a small request cannot make the reader
  // allocate for billions of nodes.
  const std::uint64_t literals = static_cast<std::uint64_t>(i) + o + 3ULL * a;
  if (2 * literals > static_cast<std::uint64_t>(bytes_left(is))) {
    throw std::runtime_error(
        "read_aag: header declares more literals than the text holds");
  }
  // A literal names a variable in [0, M]; each variable is defined once, by
  // the constant, an input line or an AND line, before any AND line uses it.
  const Lit max_lit = make_lit(m, true);
  const auto bad = [](const char* what, Lit lit) {
    return std::runtime_error(std::string("read_aag: ") + what + " " +
                              std::to_string(lit));
  };
  Aig aig(i);
  // Map from file variable to our literal (kUndefined until defined). PIs
  // are expected in order 2,4,6,... as AIGER recommends; any order of the
  // variables 1..I is accepted and remapped.
  constexpr Lit kUndefined = 0xffffffffu;
  std::vector<Lit> map(static_cast<std::size_t>(m) + 1, kUndefined);
  map[0] = kLitFalse;
  for (std::uint32_t k = 0; k < i; ++k) {
    Lit lit = 0;
    if (!(is >> lit)) {
      throw std::runtime_error("read_aag: bad input literal");
    }
    if (lit_compl(lit) || lit > max_lit || map[lit_var(lit)] != kUndefined) {
      throw bad("bad input literal", lit);
    }
    map[lit_var(lit)] = aig.pi(k);
  }
  std::vector<Lit> out_lits(o);
  for (auto& lit : out_lits) {
    if (!(is >> lit)) {
      throw std::runtime_error("read_aag: bad output literal");
    }
    if (lit > max_lit) {
      throw bad("output literal out of range:", lit);
    }
  }
  const auto fanin = [&](Lit lit) {
    if (lit > max_lit) {
      throw bad("and fanin out of range:", lit);
    }
    if (map[lit_var(lit)] == kUndefined) {
      throw bad("and fanin used before its definition:", lit);
    }
    return lit_notc(map[lit_var(lit)], lit_compl(lit));
  };
  for (std::uint32_t k = 0; k < a; ++k) {
    Lit lhs = 0;
    Lit rhs0 = 0;
    Lit rhs1 = 0;
    if (!(is >> lhs >> rhs0 >> rhs1)) {
      throw std::runtime_error("read_aag: bad and line");
    }
    if (lit_compl(lhs) || lhs > max_lit || lit_var(lhs) <= i ||
        map[lit_var(lhs)] != kUndefined) {
      throw bad("bad and lhs", lhs);
    }
    const Lit f0 = fanin(rhs0);
    const Lit f1 = fanin(rhs1);
    map[lit_var(lhs)] = aig.and2(f0, f1);
  }
  // Every variable in [1, M] is defined by now: I + A distinct ones were.
  for (Lit lit : out_lits) {
    aig.add_output(lit_notc(map[lit_var(lit)], lit_compl(lit)));
  }
  return aig;
}

Aig read_aag_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open: " + path);
  }
  return read_aag(is);
}

}  // namespace lsml::aig
