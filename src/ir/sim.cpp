#include "ir/sim.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

namespace qrc::ir {

using la::cplx;

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > 24) {
    throw std::invalid_argument("Statevector: unsupported qubit count");
  }
  amp_.assign(std::size_t{1} << num_qubits, cplx{0.0, 0.0});
  amp_[0] = 1.0;
}

Statevector Statevector::random(int num_qubits, std::uint64_t seed) {
  Statevector out(num_qubits);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  double norm2 = 0.0;
  for (cplx& a : out.amp_) {
    a = cplx{gauss(rng), gauss(rng)};
    norm2 += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (cplx& a : out.amp_) {
    a *= inv;
  }
  return out;
}

void Statevector::apply_1q(const la::Mat2& u, int q) {
  const std::size_t bit = std::size_t{1} << q;
  const std::size_t n = amp_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & bit) != 0) {
      continue;
    }
    const cplx a0 = amp_[i];
    const cplx a1 = amp_[i | bit];
    amp_[i] = la::mul(u(0, 0), a0) + la::mul(u(0, 1), a1);
    amp_[i | bit] = la::mul(u(1, 0), a0) + la::mul(u(1, 1), a1);
  }
}

void Statevector::apply_2q(const la::Mat4& u, int q0, int q1) {
  const std::size_t b0 = std::size_t{1} << q0;
  const std::size_t b1 = std::size_t{1} << q1;
  const std::size_t n = amp_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & b0) != 0 || (i & b1) != 0) {
      continue;
    }
    // Basis order |q1 q0>: index = bit(q1) * 2 + bit(q0).
    const std::size_t i00 = i;
    const std::size_t i01 = i | b0;
    const std::size_t i10 = i | b1;
    const std::size_t i11 = i | b0 | b1;
    const cplx a00 = amp_[i00];
    const cplx a01 = amp_[i01];
    const cplx a10 = amp_[i10];
    const cplx a11 = amp_[i11];
    const auto row = [&](int r) {
      return la::mul(u(r, 0), a00) + la::mul(u(r, 1), a01) +
             la::mul(u(r, 2), a10) + la::mul(u(r, 3), a11);
    };
    amp_[i00] = row(0);
    amp_[i01] = row(1);
    amp_[i10] = row(2);
    amp_[i11] = row(3);
  }
}

void Statevector::apply_matrix(const la::Mat2& u, int q) { apply_1q(u, q); }

void Statevector::apply_matrix(const la::Mat4& u, int q0, int q1) {
  apply_2q(u, q0, q1);
}

void Statevector::apply(const Operation& op) {
  if (!op.is_unitary()) {
    // The silent skip is deliberately restricted to the known non-unitary
    // circuit elements. A future non-unitary kind must be handled here
    // explicitly, not ignored — an equivalence check that drops ops it
    // does not understand passes vacuously.
    switch (op.kind()) {
      case GateKind::kMeasure:
      case GateKind::kBarrier:
      case GateKind::kReset:
        return;
      default:
        throw std::invalid_argument(
            "Statevector: unsupported non-unitary op '" +
            std::string(op.info().name) + "'");
    }
  }
  switch (op.num_qubits()) {
    case 1:
      apply_1q(gate_matrix_1q(op.kind(), op.params()), op.qubit(0));
      return;
    case 2:
      apply_2q(gate_matrix_2q(op.kind(), op.params()), op.qubit(0),
               op.qubit(1));
      return;
    case 3: {
      const std::size_t ba = std::size_t{1} << op.qubit(0);
      const std::size_t bb = std::size_t{1} << op.qubit(1);
      const std::size_t bc = std::size_t{1} << op.qubit(2);
      const std::size_t n = amp_.size();
      switch (op.kind()) {
        case GateKind::kCCX:
          // Controls = operands 0, 1; target = operand 2.
          for (std::size_t i = 0; i < n; ++i) {
            if ((i & ba) != 0 && (i & bb) != 0 && (i & bc) == 0) {
              std::swap(amp_[i], amp_[i | bc]);
            }
          }
          return;
        case GateKind::kCCZ:
          for (std::size_t i = 0; i < n; ++i) {
            if ((i & ba) != 0 && (i & bb) != 0 && (i & bc) != 0) {
              amp_[i] = -amp_[i];
            }
          }
          return;
        case GateKind::kCSWAP:
          // Control = operand 0; swapped = operands 1, 2.
          for (std::size_t i = 0; i < n; ++i) {
            if ((i & ba) != 0 && (i & bb) != 0 && (i & bc) == 0) {
              std::swap(amp_[i], amp_[(i & ~bb) | bc]);
            }
          }
          return;
        default:
          throw std::invalid_argument("Statevector: unknown 3q gate '" +
                                      std::string(op.info().name) + "'");
      }
    }
    default:
      throw std::invalid_argument("Statevector: unsupported arity for '" +
                                  std::string(op.info().name) + "'");
  }
}

void Statevector::apply(const Circuit& circuit) {
  if (circuit.num_qubits() > num_qubits_) {
    throw std::invalid_argument("Statevector: circuit wider than state");
  }
  for (const Operation& op : circuit.ops()) {
    apply(op);
  }
  const cplx phase = std::exp(cplx{0.0, circuit.global_phase()});
  if (phase != cplx{1.0, 0.0}) {
    for (cplx& a : amp_) {
      a = la::mul(a, phase);
    }
  }
}

cplx Statevector::inner_product(const Statevector& rhs) const {
  if (rhs.amp_.size() != amp_.size()) {
    throw std::invalid_argument("inner_product: dimension mismatch");
  }
  cplx acc = 0.0;
  for (std::size_t i = 0; i < amp_.size(); ++i) {
    acc += la::mul(std::conj(amp_[i]), rhs.amp_[i]);
  }
  return acc;
}

double Statevector::norm() const {
  double acc = 0.0;
  for (const cplx& a : amp_) {
    acc += std::norm(a);
  }
  return std::sqrt(acc);
}

Statevector permute_qubits(const Statevector& state,
                           const std::vector<int>& perm) {
  Statevector out(state.num_qubits());
  auto& dst = out.mutable_amplitudes();
  const auto& src = state.amplitudes();
  std::fill(dst.begin(), dst.end(), cplx{0.0, 0.0});
  const int n = state.num_qubits();
  for (std::size_t i = 0; i < src.size(); ++i) {
    std::size_t j = 0;
    for (int q = 0; q < n; ++q) {
      if ((i >> q) & 1U) {
        j |= std::size_t{1} << perm[static_cast<std::size_t>(q)];
      }
    }
    dst[j] = src[i];
  }
  return out;
}

Statevector embed_state(const Statevector& state, int m,
                        const std::vector<int>& placement) {
  Statevector out(m);
  auto& dst = out.mutable_amplitudes();
  const auto& src = state.amplitudes();
  std::fill(dst.begin(), dst.end(), cplx{0.0, 0.0});
  const int n = state.num_qubits();
  for (std::size_t i = 0; i < src.size(); ++i) {
    std::size_t j = 0;
    for (int q = 0; q < n; ++q) {
      if ((i >> q) & 1U) {
        j |= std::size_t{1} << placement[static_cast<std::size_t>(q)];
      }
    }
    dst[j] = src[i];
  }
  return out;
}

bool circuits_equivalent(const Circuit& a, const Circuit& b, int num_trials,
                         std::uint64_t seed,
                         const std::vector<int>& final_permutation,
                         double atol) {
  const int n = std::max(a.num_qubits(), b.num_qubits());
  if (n > 16) {
    throw std::invalid_argument("circuits_equivalent: too many qubits");
  }
  return circuits_equivalent_on(a, b, random_stimuli(n, num_trials, seed),
                                final_permutation, atol);
}

std::vector<Statevector> random_stimuli(int num_qubits, int num_trials,
                                        std::uint64_t seed) {
  std::vector<Statevector> out;
  out.reserve(static_cast<std::size_t>(std::max(num_trials, 0)));
  for (int t = 0; t < num_trials; ++t) {
    out.push_back(
        Statevector::random(num_qubits, seed + static_cast<std::uint64_t>(t)));
  }
  return out;
}

bool circuits_equivalent_on(const Circuit& a, const Circuit& b,
                            std::span<const Statevector> stimuli,
                            const std::vector<int>& final_permutation,
                            double atol) {
  const int n = std::max(a.num_qubits(), b.num_qubits());
  cplx ref_phase{0.0, 0.0};
  for (std::size_t t = 0; t < stimuli.size(); ++t) {
    if (stimuli[t].num_qubits() != n) {
      throw std::invalid_argument(
          "circuits_equivalent_on: stimulus width differs from the circuits");
    }
    Statevector sa = stimuli[t];
    Statevector sb = stimuli[t];
    sa.apply(a);
    sb.apply(b);
    if (!final_permutation.empty()) {
      std::vector<int> perm = final_permutation;
      // Extend the permutation over untouched qubits as identity.
      for (int q = static_cast<int>(perm.size()); q < n; ++q) {
        perm.push_back(q);
      }
      sa = permute_qubits(sa, perm);
    }
    const cplx overlap = sa.inner_product(sb);
    if (std::abs(std::abs(overlap) - 1.0) > atol) {
      return false;
    }
    if (t == 0) {
      ref_phase = overlap;
    } else if (std::abs(overlap - ref_phase) > atol * 10.0) {
      return false;
    }
  }
  return true;
}

bool mapped_circuit_equivalent(const Circuit& logical,
                               const Circuit& physical,
                               const std::vector<int>& initial_layout,
                               const std::vector<int>& final_layout,
                               int num_trials, std::uint64_t seed,
                               double atol) {
  const int m = physical.num_qubits();
  if (m > 16) {
    throw std::invalid_argument("mapped_circuit_equivalent: device too big");
  }
  for (int t = 0; t < num_trials; ++t) {
    Statevector input = Statevector::random(
        logical.num_qubits(), seed + static_cast<std::uint64_t>(t));
    // Physical evolution of the embedded input.
    Statevector phys = embed_state(input, m, initial_layout);
    phys.apply(physical);
    // Logical evolution, then embed at the final layout.
    Statevector log = input;
    log.apply(logical);
    Statevector expected = embed_state(log, m, final_layout);
    const cplx overlap = expected.inner_product(phys);
    if (std::abs(std::abs(overlap) - 1.0) > atol) {
      return false;
    }
  }
  return true;
}

}  // namespace qrc::ir
