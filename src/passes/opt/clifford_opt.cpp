#include "passes/opt/clifford_opt.hpp"

#include <algorithm>
#include <vector>

#include "clifford/tableau.hpp"
#include "obs/stage.hpp"
#include "passes/blocks.hpp"

namespace qrc::passes {

namespace {

using ir::Circuit;
using ir::Operation;

bool clifford_resynthesize(Circuit& circuit, const PassContext& ctx,
                           int min_two_qubit, bool strict_two_qubit) {
  const auto blocks = collect_clifford_blocks(circuit);
  if (blocks.empty()) {
    return false;
  }
  // One stage per pass call, not per block: a wide circuit has hundreds
  // of blocks, which would flood a trace's bounded span buffer.
  obs::Stage stage(obs::StageId::kTableauSweep);
  std::vector<bool> removed(circuit.size(), false);
  std::vector<std::pair<int, std::vector<Operation>>> insertions;
  bool changed = false;

  for (const CliffordBlock& blk : blocks) {
    if (blk.two_qubit_count < min_two_qubit) {
      continue;
    }
    // Re-index the support to 0..k-1.
    const auto local = [&](int q) {
      return static_cast<int>(
          std::lower_bound(blk.qubits.begin(), blk.qubits.end(), q) -
          blk.qubits.begin());
    };
    Circuit mini(static_cast<int>(blk.qubits.size()));
    for (const int idx : blk.op_indices) {
      Operation op = circuit.ops()[static_cast<std::size_t>(idx)];
      for (int k = 0; k < op.num_qubits(); ++k) {
        op.set_qubit(k, local(op.qubit(k)));
      }
      mini.append(op);
    }
    const auto tableau = clifford::Tableau::from_circuit(mini);
    if (!tableau.has_value()) {
      continue;  // defensive; collection should guarantee Clifford
    }
    const Circuit resynth = tableau->to_circuit();
    const int old_2q = blk.two_qubit_count;
    const int old_total = static_cast<int>(blk.op_indices.size());
    const int new_2q = resynth.two_qubit_gate_count();
    const int new_total = resynth.gate_count();
    const bool better =
        strict_two_qubit
            ? new_2q < old_2q
            : (new_2q < old_2q || (new_2q == old_2q && new_total < old_total));
    if (!better) {
      continue;
    }
    // Map back to the original qubits; reject if connectivity would break
    // on a mapped circuit.
    std::vector<Operation> mapped;
    mapped.reserve(resynth.size());
    bool respects_topology = true;
    for (Operation op : resynth.ops()) {
      for (int k = 0; k < op.num_qubits(); ++k) {
        op.set_qubit(k, blk.qubits[static_cast<std::size_t>(op.qubit(k))]);
      }
      if (ctx.is_mapped && ctx.device != nullptr && op.num_qubits() == 2 &&
          !ctx.device->coupling().are_coupled(op.qubit(0), op.qubit(1))) {
        respects_topology = false;
        break;
      }
      mapped.push_back(op);
    }
    if (!respects_topology) {
      continue;
    }
    for (const int idx : blk.op_indices) {
      removed[static_cast<std::size_t>(idx)] = true;
    }
    insertions.emplace_back(blk.op_indices.back(), std::move(mapped));
    changed = true;
  }
  if (!changed) {
    return false;
  }

  Circuit rebuilt(circuit.num_qubits(), circuit.name());
  rebuilt.add_global_phase(circuit.global_phase());
  for (int i = 0; i < static_cast<int>(circuit.size()); ++i) {
    const auto ins = std::find_if(insertions.begin(), insertions.end(),
                                  [i](const auto& e) { return e.first == i; });
    if (ins != insertions.end()) {
      for (const Operation& op : ins->second) {
        rebuilt.append(op);
      }
    }
    if (!removed[static_cast<std::size_t>(i)]) {
      rebuilt.append(circuit.ops()[static_cast<std::size_t>(i)]);
    }
  }
  circuit = std::move(rebuilt);
  return true;
}

}  // namespace

bool OptimizeCliffords::run(ir::Circuit& circuit,
                            const PassContext& ctx) const {
  return clifford_resynthesize(circuit, ctx, /*min_two_qubit=*/1,
                               /*strict_two_qubit=*/false);
}

bool CliffordSimp::run(ir::Circuit& circuit, const PassContext& ctx) const {
  return clifford_resynthesize(circuit, ctx, /*min_two_qubit=*/2,
                               /*strict_two_qubit=*/true);
}

}  // namespace qrc::passes
