/// \file complex.hpp
/// \brief Scalar complex type and numeric tolerances shared across the
///        linear-algebra substrate.
#pragma once

#include <cmath>
#include <complex>
#include <numbers>

namespace qrc::la {

/// Complex scalar used throughout the library.
using cplx = std::complex<double>;

/// Default absolute tolerance for floating-point comparisons of matrix
/// entries and angles. Chosen so that chains of ~100 decompositions stay
/// well inside the tolerance.
inline constexpr double kAtol = 1e-9;

/// Looser tolerance for verification after long pass pipelines.
inline constexpr double kLooseAtol = 1e-7;

inline constexpr double kPi = std::numbers::pi;

/// Complex product by the textbook formula (ac - bd, ad + bc), with no
/// branch. `std::complex`'s operator* computes the same four products and
/// two sums, then calls the out-of-line `__muldc3` to recover an infinity
/// when both parts come out NaN; for finite operands the two agree bit for
/// bit as long as the mul/add pairs are not contracted into FMAs. The
/// library builds with -ffp-contract=off, but on FMA targets GCC's
/// vectorizer still fuses complex products, so only the files that
/// CMakeLists.txt builds with -fno-tree-vectorize may call this: la/mat2.cpp,
/// la/mat4.cpp and ir/sim.cpp. A new caller's file joins that list.
[[nodiscard]] inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// \returns true if |a - b| <= atol componentwise.
[[nodiscard]] inline bool approx_equal(cplx a, cplx b, double atol = kAtol) {
  return std::abs(a - b) <= atol;
}

/// \returns true if |a| <= atol.
[[nodiscard]] inline bool approx_zero(cplx a, double atol = kAtol) {
  return std::abs(a) <= atol;
}

/// Normalises an angle into the half-open interval (-pi, pi].
[[nodiscard]] inline double normalize_angle(double theta) {
  double t = std::remainder(theta, 2.0 * kPi);
  if (t <= -kPi) {
    t += 2.0 * kPi;
  }
  return t;
}

/// \returns true if theta is an integer multiple of 2*pi (i.e. the rotation
/// it parameterises is the identity up to global phase for Rz/Rx/Ry).
[[nodiscard]] inline bool angle_is_zero(double theta, double atol = kAtol) {
  return std::abs(normalize_angle(theta)) <= atol;
}

}  // namespace qrc::la
