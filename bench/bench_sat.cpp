// SAT subsystem bench: (1) CEC latency as a function of AIG size and cone
// flavor (random, XOR-rich, arith) — each circuit is checked against its
// own resyn2 optimization, so every miter is a real UNSAT proof
// obligation; (2) fraig node reduction — resyn2fs
// vs resyn2 AND counts over the same random-cone pool the synth bench
// uses. Rides the bench_common scaffolding: LSML_SCALE grows the pool.

#include <chrono>
#include <cstdio>
#include <vector>

#include "aig/aig_random.hpp"
#include "bench_common.hpp"
#include "sat/cec.hpp"
#include "sat/fraig.hpp"
#include "synth/pass_manager.hpp"

int main() {
  using namespace lsml;
  using Clock = std::chrono::steady_clock;
  const auto cfg = bench::announce("sat: cec latency and fraig reduction");
  const bool fast = cfg.scale != core::Scale::kFull;

  const synth::PassManager manager{synth::SynthOptions{}};

  const auto flavor_name = [](aig::ConeFlavor flavor) {
    return flavor == aig::ConeFlavor::kRandom    ? "random"
           : flavor == aig::ConeFlavor::kXorRich ? "xor-rich"
                                                 : "arith";
  };
  constexpr aig::ConeFlavor kFlavors[] = {aig::ConeFlavor::kRandom,
                                          aig::ConeFlavor::kXorRich,
                                          aig::ConeFlavor::kArith};

  std::printf(
      "CEC latency vs AIG size (circuit vs its resyn2 form; conflicts are\n"
      "the sweep's plus the final solve's):\n");
  std::printf("%-8s %8s | %9s %9s | %10s | %9s\n", "flavor", "ands",
              "opt_ands", "verdict", "conflicts", "ms");
  {
    core::Rng rng(2021);
    for (const aig::ConeFlavor flavor : kFlavors) {
      for (const std::uint32_t ands :
           fast ? std::vector<std::uint32_t>{100, 300, 1000}
                : std::vector<std::uint32_t>{100, 300, 1000, 3000}) {
        aig::ConeOptions cone;
        cone.num_inputs = 24;
        cone.num_ands = ands;
        cone.flavor = flavor;
        cone.max_tries = 2;
        const aig::Aig g = aig::random_cone(cone, rng);
        const aig::Aig opt =
            manager.run(g, synth::Script::preset("resyn2")).circuit;
        const Clock::time_point t0 = Clock::now();
        const sat::CecResult r = sat::cec(g, opt, {0, 0});
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        std::printf("%-8s %8u | %9u %9s | %10llu | %9.2f\n",
                    flavor_name(flavor), g.num_ands(), opt.num_ands(),
                    r.status == sat::CecStatus::kEquivalent ? "EQ" : "??",
                    static_cast<unsigned long long>(r.solver_stats.conflicts),
                    ms);
      }
    }
  }

  std::printf("\nfraig reduction: resyn2 vs resyn2fs on random cones:\n");
  std::printf("%-8s %6s | %9s %9s | %7s | %9s %9s\n", "flavor", "ands",
              "resyn2", "resyn2fs", "extra%", "fs_proved", "fs_ms");
  {
    core::Rng rng(2020);
    for (const aig::ConeFlavor flavor : kFlavors) {
      for (const std::uint32_t ands :
           fast ? std::vector<std::uint32_t>{200, 600}
                : std::vector<std::uint32_t>{200, 600, 2000}) {
        aig::ConeOptions cone;
        cone.num_inputs = 16;
        cone.num_ands = ands;
        cone.flavor = flavor;
        cone.max_tries = 2;
        const aig::Aig g = aig::random_cone(cone, rng);

        const auto r2 = manager.run(g, synth::Script::preset("resyn2"));
        const Clock::time_point t0 = Clock::now();
        const auto r2fs = manager.run(g, synth::Script::preset("resyn2fs"));
        const double fs_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();

        // Direct fraig call on the resyn2 result, to report merge counts.
        core::Rng fraig_rng(7);
        sat::FraigStats stats;
        (void)sat::fraig(r2.circuit, sat::FraigOptions{}, fraig_rng, &stats);

        const std::uint32_t a = r2.circuit.num_ands();
        const std::uint32_t b = r2fs.circuit.num_ands();
        std::printf("%-8s %6u | %9u %9u | %6.1f%% | %9llu %9.0f\n",
                    flavor_name(flavor), g.num_ands(), a, b,
                    a == 0 ? 0.0
                           : 100.0 * static_cast<double>(a - b) /
                                 static_cast<double>(a),
                    static_cast<unsigned long long>(stats.proved), fs_ms);
      }
    }
  }
  std::printf("\n(resyn2fs always <= resyn2: fs only merges proven-"
              "equivalent nodes; LSML_SCALE=full grows the pool)\n");
  return 0;
}
