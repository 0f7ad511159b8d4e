/// \file sim.hpp
/// \brief Dense statevector simulation of circuits, used for equivalence
///        checking in tests and for validating pass soundness. Practical up
///        to ~16 qubits; equivalence checks are used on <= 12.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/circuit.hpp"
#include "la/complex.hpp"

namespace qrc::ir {

/// Dense complex statevector over n qubits (qubit 0 = least-significant
/// bit of the basis index).
class Statevector {
 public:
  /// |0...0> on n qubits.
  explicit Statevector(int num_qubits);

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] const std::vector<la::cplx>& amplitudes() const {
    return amp_;
  }
  [[nodiscard]] std::vector<la::cplx>& mutable_amplitudes() { return amp_; }

  /// Haar-ish random normalized state (Gaussian amplitudes).
  [[nodiscard]] static Statevector random(int num_qubits,
                                          std::uint64_t seed);

  /// Applies a unitary operation in place. Measure/reset/barrier are
  /// ignored (equivalence checking concerns the unitary part); any *other*
  /// op the simulator cannot handle throws — a silent skip here would let
  /// an equivalence check pass vacuously.
  void apply(const Operation& op);

  /// Applies all ops of a circuit, plus its global phase.
  void apply(const Circuit& circuit);

  /// Applies a raw 2x2 unitary to qubit `q` (used by the verifier to apply
  /// conjugated gate matrices that have no GateKind of their own).
  void apply_matrix(const la::Mat2& u, int q);

  /// Applies a raw 4x4 unitary to the (q0 = low bit, q1 = high bit) pair.
  void apply_matrix(const la::Mat4& u, int q0, int q1);

  /// <this | rhs>.
  [[nodiscard]] la::cplx inner_product(const Statevector& rhs) const;

  /// ||this||_2.
  [[nodiscard]] double norm() const;

 private:
  void apply_1q(const la::Mat2& u, int q);
  void apply_2q(const la::Mat4& u, int q0, int q1);

  int num_qubits_;
  std::vector<la::cplx> amp_;
};

/// Reindexes `state` so that qubit q of the input becomes qubit perm[q] of
/// the output (perm must be a bijection over the state's qubits).
[[nodiscard]] Statevector permute_qubits(const Statevector& state,
                                         const std::vector<int>& perm);

/// Embeds an n-qubit state into m >= n qubits, placing logical qubit i at
/// physical qubit placement[i]; all other physical qubits are |0>.
[[nodiscard]] Statevector embed_state(const Statevector& state, int m,
                                      const std::vector<int>& placement);

/// Statistical unitary-equivalence check: applies both circuits to
/// `num_trials` shared random input states and compares the outputs up to a
/// single global phase (estimated from the first trial and required to be
/// consistent across all trials). Sound for unitary circuits: agreement on
/// enough random states implies equality of the unitaries w.h.p.
///
/// `final_permutation`, if non-empty, maps output qubit i of `a` to output
/// qubit final_permutation[i] of `b` (used for routed circuits, whose
/// final layout differs from the initial one).
[[nodiscard]] bool circuits_equivalent(const Circuit& a, const Circuit& b,
                                       int num_trials = 4,
                                       std::uint64_t seed = 12345,
                                       const std::vector<int>&
                                           final_permutation = {},
                                       double atol = 1e-6);

/// The input states circuits_equivalent draws: Statevector::random(
/// num_qubits, seed + t) for each trial t < num_trials.
[[nodiscard]] std::vector<Statevector> random_stimuli(int num_qubits,
                                                      int num_trials,
                                                      std::uint64_t seed);

/// circuits_equivalent on caller-supplied input states, one trial per
/// state, each over max(a.num_qubits(), b.num_qubits()) qubits. A caller
/// that checks many small circuits draws its stimuli once and reuses them.
[[nodiscard]] bool circuits_equivalent_on(
    const Circuit& a, const Circuit& b, std::span<const Statevector> stimuli,
    const std::vector<int>& final_permutation = {}, double atol = 1e-6);

/// Convenience: checks a (possibly wider, mapped) circuit `b` against the
/// original `a` given an initial layout (logical -> physical) and final
/// layout after routing.
[[nodiscard]] bool mapped_circuit_equivalent(
    const Circuit& logical, const Circuit& physical,
    const std::vector<int>& initial_layout,
    const std::vector<int>& final_layout, int num_trials = 4,
    std::uint64_t seed = 12345, double atol = 1e-6);

}  // namespace qrc::ir
