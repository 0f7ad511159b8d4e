/// \file consolidate.hpp
/// \brief Two-qubit block consolidation: Qiskit-style Collect2qBlocks +
///        ConsolidateBlocks, and the TKET-style PeepholeOptimise2Q. Both
///        rebuild two-qubit blocks through the KAK decomposition and keep
///        the replacement only when it reduces cost.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "passes/pass.hpp"

namespace qrc::passes {

/// Collects maximal blocks over a qubit pair and resynthesises blocks with
/// at least two 2q gates; replaces when the CX count strictly drops (or
/// ties with fewer total gates).
class ConsolidateBlocks final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "Collect2qBlocks+ConsolidateBlocks";
  }
  bool run(ir::Circuit& circuit, const PassContext& ctx) const override;
};

/// TKET-style peephole: also attacks single-2q-gate blocks, normalising
/// them through the KAK form; same strict cost gate as ConsolidateBlocks.
class PeepholeOptimise2Q final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "PeepholeOptimise2Q";
  }
  bool run(ir::Circuit& circuit, const PassContext& ctx) const override;
};

/// The block resyntheses one pass call has already computed: for each
/// two-qubit block seen, decompose_two_qubit_unitary of its unitary. The
/// key is the block's exact op sequence on local qubits {0, 1}: kind,
/// operands in order and each parameter's bit pattern (-0.0 and 0.0 give
/// different matrices, so Operation::operator== is too coarse). The
/// resynthesis is a pure function of that sequence, so a hit returns what
/// recomputing would. A memo lives for one call on one thread; it is never
/// static or shared.
using ResynthesisMemo =
    std::unordered_map<std::string, std::optional<ir::Circuit>>;

/// PeepholeOptimise2Q::run with a caller-owned memo, so FullPeepholeOptimise
/// can keep one memo across its rounds.
bool peephole_optimise_2q(ir::Circuit& circuit, ResynthesisMemo& memo);

}  // namespace qrc::passes
