#include "passes/commutation.hpp"

#include <algorithm>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/sim.hpp"

namespace qrc::passes {

namespace {

using ir::GateKind;
using ir::Operation;

bool is_x_type_1q(GateKind k) {
  return k == GateKind::kX || k == GateKind::kSX || k == GateKind::kSXdg ||
         k == GateKind::kRX;
}

/// Widest joint support numeric_commute simulates.
constexpr int kMaxCommuteSupport = 5;

/// The two input states circuits_equivalent(ab, ba, 2, 777) draws, for each
/// support width 0..kMaxCommuteSupport. Drawn once per process: the pass
/// asks thousands of times per compile and the states never change.
const std::vector<std::vector<ir::Statevector>>& commute_stimuli() {
  static const std::vector<std::vector<ir::Statevector>> table = [] {
    std::vector<std::vector<ir::Statevector>> t;
    for (int w = 0; w <= kMaxCommuteSupport; ++w) {
      t.push_back(ir::random_stimuli(w, 2, 777));
    }
    return t;
  }();
  return table;
}

/// Exact commutation via simulation on the joint support (re-indexed).
bool numeric_commute(const Operation& a, const Operation& b) {
  std::vector<int> support;
  for (const int q : a.qubits()) {
    support.push_back(q);
  }
  for (const int q : b.qubits()) {
    if (std::find(support.begin(), support.end(), q) == support.end()) {
      support.push_back(q);
    }
  }
  if (support.size() > static_cast<std::size_t>(kMaxCommuteSupport)) {
    return false;  // conservative
  }
  std::sort(support.begin(), support.end());
  const auto local = [&](int q) {
    return static_cast<int>(std::find(support.begin(), support.end(), q) -
                            support.begin());
  };
  const int n = static_cast<int>(support.size());
  Operation la = a;
  Operation lb = b;
  for (int i = 0; i < a.num_qubits(); ++i) {
    la.set_qubit(i, local(a.qubit(i)));
  }
  for (int i = 0; i < b.num_qubits(); ++i) {
    lb.set_qubit(i, local(b.qubit(i)));
  }
  ir::Circuit ab(n);
  ab.append(la);
  ab.append(lb);
  ir::Circuit ba(n);
  ba.append(lb);
  ba.append(la);
  return ir::circuits_equivalent_on(
      ab, ba, commute_stimuli()[static_cast<std::size_t>(n)], {}, 1e-9);
}

}  // namespace

bool ops_commute(const Operation& a, const Operation& b) {
  if (!a.is_unitary() || !b.is_unitary()) {
    return false;
  }
  if (!a.overlaps(b)) {
    return true;
  }
  const auto& ia = a.info();
  const auto& ib = b.info();
  // Fast path: two diagonal gates always commute.
  if (ia.is_diagonal && ib.is_diagonal) {
    return true;
  }
  // Fast paths around CX, the dominant two-qubit gate.
  const auto cx_rule = [](const Operation& cx,
                          const Operation& other) -> int {
    // returns 1 = commute, 0 = don't know, -1 = no fast answer but likely
    // not commuting.
    if (cx.kind() != GateKind::kCX) {
      return 0;
    }
    if (other.num_qubits() == 1) {
      const int q = other.qubit(0);
      if (q == cx.qubit(0)) {  // control
        return other.info().is_diagonal ? 1 : -1;
      }
      if (q == cx.qubit(1)) {  // target
        return is_x_type_1q(other.kind()) ? 1 : -1;
      }
    }
    if (other.kind() == GateKind::kCX) {
      const bool share_control = other.qubit(0) == cx.qubit(0);
      const bool share_target = other.qubit(1) == cx.qubit(1);
      const bool cross = other.qubit(0) == cx.qubit(1) ||
                         other.qubit(1) == cx.qubit(0);
      if (share_control && share_target) {
        return 1;  // identical pair
      }
      if (cross) {
        return -1;
      }
      if (share_control || share_target) {
        return 1;
      }
    }
    return 0;
  };
  const int ab = cx_rule(a, b);
  if (ab == 1) {
    return true;
  }
  if (ab == -1) {
    return numeric_commute(a, b);
  }
  const int ba = cx_rule(b, a);
  if (ba == 1) {
    return true;
  }
  return numeric_commute(a, b);
}

}  // namespace qrc::passes
