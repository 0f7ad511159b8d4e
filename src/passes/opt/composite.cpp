#include "passes/opt/composite.hpp"

#include "passes/opt/cancellation.hpp"
#include "passes/opt/consolidate.hpp"
#include "passes/opt/one_qubit_opt.hpp"

namespace qrc::passes {

bool FullPeepholeOptimise::run(ir::Circuit& circuit,
                               const PassContext& ctx) const {
  const Optimize1qGatesDecomposition opt1q;
  const CommutativeCancellation commutative;
  const RemoveRedundancies redundancies;
  // One memo for all rounds: a block resynthesised in round 1 is often
  // met again, unchanged, in round 2 or 3.
  ResynthesisMemo memo;

  bool any = false;
  for (int round = 0; round < 3; ++round) {
    bool changed = false;
    changed |= opt1q.run(circuit, ctx);
    changed |= peephole_optimise_2q(circuit, memo);
    changed |= commutative.run(circuit, ctx);
    changed |= redundancies.run(circuit, ctx);
    if (!changed) {
      break;
    }
    any = true;
  }
  return any;
}

}  // namespace qrc::passes
