#pragma once
// Output checks of the benchmark. Each returns an empty string when the
// output is right and a one-line reason when it is not; a failed check
// makes the run report correct:false and exit nonzero.

#include <cstdint>
#include <string>

#include "aig/aig.hpp"
#include "data/dataset.hpp"
#include "sat/cec.hpp"

namespace lsmlbench {

/// A contest artifact fits the AND cap and its test accuracy, re-simulated
/// with learn::circuit_accuracy, equals the reported value.
std::string check_artifact(const lsml::aig::Aig& circuit, std::uint32_t cap,
                           const lsml::data::Dataset& test,
                           double reported_test_acc);

/// The share of rows where `outputs` (a served model's 0/1 output string)
/// matches the labels of `rows` equals the train accuracy `learn` reported.
std::string check_eval_accuracy(const std::string& outputs,
                                const lsml::data::Dataset& rows,
                                double reported_acc);

/// A cec verdict does not contradict the known answer (pairs known to
/// differ are never `equivalent`, and vice versa), and a counterexample
/// replays: through sat::cex_to_minterm and packed simulation, `a` and `b`
/// really disagree on it.
std::string check_cec(bool known_equivalent, lsml::sat::CecStatus status,
                      const std::vector<std::uint8_t>& counterexample,
                      std::size_t failing_output, const lsml::aig::Aig& a,
                      const lsml::aig::Aig& b);

}  // namespace lsmlbench
