#include "passes/opt/consolidate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "passes/blocks.hpp"
#include "passes/two_qubit_decomp.hpp"

namespace qrc::passes {

namespace {

using ir::Circuit;
using ir::Operation;

/// Local operand of `q` in a block over (qubit_a, qubit_b): a -> 0, b -> 1.
int local_qubit(int q, const TwoQubitBlock& blk) {
  return q == blk.qubit_a ? 0 : 1;
}

/// decompose_two_qubit_unitary(two_qubit_circuit_unitary(block)), looked up
/// in `memo` first and stored there on a miss. `key` is scratch space. Each
/// op's kind fixes how many operand and parameter bytes follow it, so the
/// key of a block decodes to exactly one op sequence.
const std::optional<Circuit>& resynthesise(const Circuit& circuit,
                                           const TwoQubitBlock& blk,
                                           ResynthesisMemo& memo,
                                           std::string& key) {
  key.clear();
  for (const int idx : blk.op_indices) {
    const Operation& op = circuit.ops()[static_cast<std::size_t>(idx)];
    key.push_back(static_cast<char>(op.kind()));
    for (int k = 0; k < op.num_qubits(); ++k) {
      key.push_back(static_cast<char>(local_qubit(op.qubit(k), blk)));
    }
    for (const double p : op.params()) {
      const auto bits = std::bit_cast<std::uint64_t>(p);
      for (int b = 0; b < 64; b += 8) {
        key.push_back(static_cast<char>((bits >> b) & 0xFFU));
      }
    }
  }
  const auto hit = memo.find(key);
  if (hit != memo.end()) {
    return hit->second;
  }
  // Local 2-qubit circuit: qubit_a -> 0, qubit_b -> 1.
  Circuit mini(2);
  for (const int idx : blk.op_indices) {
    Operation op = circuit.ops()[static_cast<std::size_t>(idx)];
    for (int k = 0; k < op.num_qubits(); ++k) {
      op.set_qubit(k, local_qubit(op.qubit(k), blk));
    }
    mini.append(op);
  }
  return memo
      .emplace(key, decompose_two_qubit_unitary(two_qubit_circuit_unitary(mini)))
      .first->second;
}

/// One consolidation sweep over the 2q blocks of `circuit`;
/// `min_two_qubit` selects which blocks are attacked.
bool consolidate_once(Circuit& circuit, int min_two_qubit,
                      ResynthesisMemo& memo, std::string& key) {
  const auto blocks = collect_2q_blocks(circuit);
  if (blocks.empty()) {
    return false;
  }
  std::vector<bool> removed(circuit.size(), false);
  std::vector<std::pair<int, std::vector<Operation>>> insertions;
  double phase = 0.0;
  bool changed = false;

  for (const TwoQubitBlock& blk : blocks) {
    if (blk.two_qubit_count < min_two_qubit) {
      continue;
    }
    const auto& resynth = resynthesise(circuit, blk, memo, key);
    if (!resynth.has_value()) {
      continue;
    }
    const int old_2q = blk.two_qubit_count;
    const int old_total = static_cast<int>(blk.op_indices.size());
    const int new_2q = resynth->two_qubit_gate_count();
    const int new_total = resynth->gate_count();
    const bool better =
        new_2q < old_2q || (new_2q == old_2q && new_total < old_total);
    if (!better) {
      continue;
    }
    std::vector<Operation> mapped;
    mapped.reserve(resynth->size());
    for (Operation op : resynth->ops()) {
      for (int k = 0; k < op.num_qubits(); ++k) {
        op.set_qubit(k, op.qubit(k) == 0 ? blk.qubit_a : blk.qubit_b);
      }
      mapped.push_back(op);
    }
    for (const int idx : blk.op_indices) {
      removed[static_cast<std::size_t>(idx)] = true;
    }
    insertions.emplace_back(blk.op_indices.back(), std::move(mapped));
    phase += resynth->global_phase();
    changed = true;
  }
  if (!changed) {
    return false;
  }

  Circuit rebuilt(circuit.num_qubits(), circuit.name());
  rebuilt.add_global_phase(circuit.global_phase() + phase);
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

/// Iterates sweeps until convergence: resynthesised blocks can fuse with
/// neighbouring gates into new consolidatable blocks.
bool consolidate(Circuit& circuit, int min_two_qubit, ResynthesisMemo& memo) {
  std::string key;
  bool any = false;
  for (int round = 0; round < 8; ++round) {
    if (!consolidate_once(circuit, min_two_qubit, memo, key)) {
      break;
    }
    any = true;
  }
  return any;
}

}  // namespace

bool peephole_optimise_2q(ir::Circuit& circuit, ResynthesisMemo& memo) {
  return consolidate(circuit, /*min_two_qubit=*/1, memo);
}

bool ConsolidateBlocks::run(ir::Circuit& circuit, const PassContext&) const {
  ResynthesisMemo memo;
  return consolidate(circuit, /*min_two_qubit=*/2, memo);
}

bool PeepholeOptimise2Q::run(ir::Circuit& circuit, const PassContext&) const {
  ResynthesisMemo memo;
  return peephole_optimise_2q(circuit, memo);
}

}  // namespace qrc::passes
