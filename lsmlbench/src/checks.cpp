#include "checks.hpp"

#include <cmath>

#include "learn/learner.hpp"

namespace lsmlbench {

namespace {

bool same_accuracy(double a, double b) { return std::fabs(a - b) <= 1e-12; }

}  // namespace

std::string check_artifact(const lsml::aig::Aig& circuit, std::uint32_t cap,
                           const lsml::data::Dataset& test,
                           double reported_test_acc) {
  if (circuit.num_ands() > cap) {
    return "artifact has " + std::to_string(circuit.num_ands()) +
           " ANDs, over the cap of " + std::to_string(cap);
  }
  const double acc = lsml::learn::circuit_accuracy(circuit, test);
  if (!same_accuracy(acc, reported_test_acc)) {
    return "artifact test accuracy re-simulates to " + std::to_string(acc) +
           ", reported " + std::to_string(reported_test_acc);
  }
  return "";
}

std::string check_eval_accuracy(const std::string& outputs,
                                const lsml::data::Dataset& rows,
                                double reported_acc) {
  if (outputs.size() != rows.num_rows()) {
    return "eval returned " + std::to_string(outputs.size()) + " outputs for " +
           std::to_string(rows.num_rows()) + " rows";
  }
  std::size_t match = 0;
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    match += (outputs[r] == '1') == rows.label(r) ? 1 : 0;
  }
  const double acc =
      static_cast<double>(match) / static_cast<double>(rows.num_rows());
  if (!same_accuracy(acc, reported_acc)) {
    return "eval of the training rows scores " + std::to_string(acc) +
           ", learn reported " + std::to_string(reported_acc);
  }
  return "";
}

std::string check_cec(bool known_equivalent, lsml::sat::CecStatus status,
                      const std::vector<std::uint8_t>& counterexample,
                      std::size_t failing_output, const lsml::aig::Aig& a,
                      const lsml::aig::Aig& b) {
  using lsml::sat::CecStatus;
  if (status == CecStatus::kUndecided) {
    return "";
  }
  if (known_equivalent != (status == CecStatus::kEquivalent)) {
    return known_equivalent ? "cec calls an equivalent pair not_equivalent"
                            : "cec calls a differing pair equivalent";
  }
  if (status == CecStatus::kNotEquivalent) {
    if (counterexample.size() != a.num_pis() ||
        failing_output >= a.num_outputs()) {
      return "cec counterexample has the wrong shape";
    }
    // The minterm is labeled by `a`; packed simulation of `b` must
    // disagree with that label.
    const lsml::data::Dataset row =
        lsml::sat::cex_to_minterm(counterexample, a, failing_output);
    const bool b_value = b.simulate(row.column_ptrs())[failing_output].get(0);
    if (b_value == row.label(0)) {
      return "cec counterexample does not replay: both circuits agree on it";
    }
  }
  return "";
}

}  // namespace lsmlbench
