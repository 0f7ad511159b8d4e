// Tests for the linear-algebra substrate: matrix algebra, Euler
// decompositions, magic-basis properties, and the KAK decomposition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "ir/sim.hpp"
#include "la/euler.hpp"
#include "la/mat2.hpp"
#include "la/mat4.hpp"
#include "la/weyl.hpp"

namespace {

using qrc::la::cplx;
using qrc::la::kPi;
using qrc::la::Mat2;
using qrc::la::Mat4;

/// Haar-ish random 2x2 unitary from random rotation angles.
Mat2 random_unitary2(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  const Mat2 u = qrc::la::rz_mat(ang(rng)) * qrc::la::ry_mat(ang(rng)) *
                 qrc::la::rz_mat(ang(rng));
  return u * std::exp(cplx{0.0, ang(rng)});
}

/// Random 4x4 unitary built from alternating local rotations and canonical
/// interactions — covers the full local-equivalence landscape.
Mat4 random_unitary4(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  Mat4 u = qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  u = u * qrc::la::canonical_gate(ang(rng), ang(rng), ang(rng));
  u = u * qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  return u;
}

// ---------------------------------------------------------------- Mat2 ----

TEST(Mat2Test, IdentityIsUnitary) {
  EXPECT_TRUE(Mat2::identity().is_unitary());
}

TEST(Mat2Test, PauliMatricesAreUnitaryAndInvolutions) {
  for (const Mat2& p :
       {qrc::la::x_mat(), qrc::la::y_mat(), qrc::la::z_mat()}) {
    EXPECT_TRUE(p.is_unitary());
    EXPECT_TRUE((p * p).approx_equal(Mat2::identity()));
  }
}

TEST(Mat2Test, SxSquaredIsX) {
  EXPECT_TRUE((qrc::la::sx_mat() * qrc::la::sx_mat())
                  .approx_equal(qrc::la::x_mat()));
}

TEST(Mat2Test, SxdgIsInverseOfSx) {
  EXPECT_TRUE((qrc::la::sx_mat() * qrc::la::sxdg_mat())
                  .approx_equal(Mat2::identity()));
}

TEST(Mat2Test, HadamardSelfInverse) {
  const Mat2 h = qrc::la::h_mat();
  EXPECT_TRUE((h * h).approx_equal(Mat2::identity()));
}

TEST(Mat2Test, SSquaredIsZ) {
  EXPECT_TRUE(
      (qrc::la::s_mat() * qrc::la::s_mat()).approx_equal(qrc::la::z_mat()));
}

TEST(Mat2Test, TSquaredIsS) {
  EXPECT_TRUE(
      (qrc::la::t_mat() * qrc::la::t_mat()).approx_equal(qrc::la::s_mat()));
}

TEST(Mat2Test, RotationsAreUnitaryForRandomAngles) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ang(-2.0 * kPi, 2.0 * kPi);
  for (int i = 0; i < 50; ++i) {
    const double t = ang(rng);
    EXPECT_TRUE(qrc::la::rx_mat(t).is_unitary());
    EXPECT_TRUE(qrc::la::ry_mat(t).is_unitary());
    EXPECT_TRUE(qrc::la::rz_mat(t).is_unitary());
  }
}

TEST(Mat2Test, RzComposesAdditively) {
  const Mat2 a = qrc::la::rz_mat(0.3) * qrc::la::rz_mat(0.4);
  EXPECT_TRUE(a.approx_equal(qrc::la::rz_mat(0.7)));
}

TEST(Mat2Test, U3CoversNamedGates) {
  // H = U3(pi/2, 0, pi) up to phase.
  EXPECT_TRUE(qrc::la::u3_mat(kPi / 2.0, 0.0, kPi).equal_up_to_phase(
      qrc::la::h_mat()));
  // X = U3(pi, 0, pi).
  EXPECT_TRUE(
      qrc::la::u3_mat(kPi, 0.0, kPi).equal_up_to_phase(qrc::la::x_mat()));
}

TEST(Mat2Test, EqualUpToPhaseDetectsPhaseDifference) {
  const Mat2 h = qrc::la::h_mat();
  const Mat2 hp = h * std::exp(cplx{0.0, 1.234});
  EXPECT_TRUE(h.equal_up_to_phase(hp));
  EXPECT_FALSE(h.equal_up_to_phase(qrc::la::x_mat()));
}

TEST(Mat2Test, DetAndTrace) {
  const Mat2 z = qrc::la::z_mat();
  EXPECT_NEAR(std::abs(z.det() - cplx{-1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(z.trace()), 0.0, 1e-12);
}

// ---------------------------------------------------------------- Mat4 ----

TEST(Mat4Test, KronOfIdentitiesIsIdentity) {
  EXPECT_TRUE(qrc::la::kron(Mat2::identity(), Mat2::identity())
                  .approx_equal(Mat4::identity()));
}

TEST(Mat4Test, CxMatricesAreUnitarySelfInverse) {
  for (const Mat4& m : {qrc::la::cx01_mat(), qrc::la::cx10_mat(),
                        qrc::la::cz_mat(), qrc::la::swap_mat()}) {
    EXPECT_TRUE(m.is_unitary());
    EXPECT_TRUE((m * m).approx_equal(Mat4::identity()));
  }
}

TEST(Mat4Test, SwapConjugationExchangesTensorFactors) {
  std::mt19937_64 rng(11);
  const Mat2 a = random_unitary2(rng);
  const Mat2 b = random_unitary2(rng);
  const Mat4 lhs =
      qrc::la::swap_mat() * qrc::la::kron(a, b) * qrc::la::swap_mat();
  EXPECT_TRUE(lhs.approx_equal(qrc::la::kron(b, a)));
}

TEST(Mat4Test, CxConjugationStabilizerRelations) {
  // CX (control q0, target q1): X_{q0} -> X_{q0} X_{q1}.
  const Mat4 cx = qrc::la::cx01_mat();
  const Mat4 x0 = qrc::la::kron(Mat2::identity(), qrc::la::x_mat());
  const Mat4 xx = qrc::la::kron(qrc::la::x_mat(), qrc::la::x_mat());
  EXPECT_TRUE((cx * x0 * cx).approx_equal(xx));
  // Z_{q1} -> Z_{q0} Z_{q1}.
  const Mat4 z1 = qrc::la::kron(qrc::la::z_mat(), Mat2::identity());
  const Mat4 zz = qrc::la::kron(qrc::la::z_mat(), qrc::la::z_mat());
  EXPECT_TRUE((cx * z1 * cx).approx_equal(zz));
}

TEST(Mat4Test, DetOfKronEqualsProductOfDetsSquared) {
  std::mt19937_64 rng(3);
  const Mat2 a = random_unitary2(rng);
  const Mat2 b = random_unitary2(rng);
  const cplx expected = a.det() * a.det() * b.det() * b.det();
  EXPECT_NEAR(std::abs(qrc::la::kron(a, b).det() - expected), 0.0, 1e-9);
}

TEST(Mat4Test, TensorDecompositionRoundTrip) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20; ++i) {
    const Mat2 a = random_unitary2(rng);
    const Mat2 b = random_unitary2(rng);
    const Mat4 m = qrc::la::kron(a, b);
    Mat2 ra;
    Mat2 rb;
    ASSERT_TRUE(qrc::la::decompose_tensor_product(m, ra, rb));
    EXPECT_TRUE(qrc::la::kron(ra, rb).approx_equal(m, 1e-7));
  }
}

TEST(Mat4Test, TensorDecompositionRejectsEntanglingGate) {
  Mat2 a;
  Mat2 b;
  EXPECT_FALSE(qrc::la::decompose_tensor_product(qrc::la::cx01_mat(), a, b));
}

TEST(Mat4Test, CanonicalGateUnitary) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        qrc::la::canonical_gate(ang(rng), ang(rng), ang(rng)).is_unitary());
  }
}

TEST(Mat4Test, CanonicalGateAtCxPointMatchesCxUpToLocals) {
  // canonical(pi/4, 0, 0) = e^{i pi XX / 4} is locally equivalent to CX:
  // they must share Makhlin invariants.
  const auto inv_a =
      qrc::la::local_invariants(qrc::la::canonical_gate(kPi / 4.0, 0.0, 0.0));
  const auto inv_b = qrc::la::local_invariants(qrc::la::cx01_mat());
  EXPECT_TRUE(inv_a.approx_equal(inv_b));
}

// --------------------------------------------------------------- Euler ----

TEST(EulerTest, ZyzRoundTripRandom) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zyz_decompose(u);
    EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZxzRoundTripRandom) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zxz_decompose(u);
    EXPECT_TRUE(qrc::la::zxz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, U3RoundTripRandom) {
  std::mt19937_64 rng(23);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::u3_decompose(u);
    EXPECT_TRUE(qrc::la::u3_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZxzxzRoundTripRandom) {
  std::mt19937_64 rng(29);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zxzxz_decompose(u);
    EXPECT_TRUE(qrc::la::zxzxz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZyzOfDiagonalGate) {
  const auto a = qrc::la::zyz_decompose(qrc::la::rz_mat(0.7));
  EXPECT_NEAR(a.gamma, 0.0, 1e-9);
  EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(qrc::la::rz_mat(0.7)));
}

TEST(EulerTest, ZyzOfAntiDiagonalGate) {
  const auto a = qrc::la::zyz_decompose(qrc::la::x_mat());
  EXPECT_NEAR(a.gamma, kPi, 1e-9);
  EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(qrc::la::x_mat()));
}

TEST(EulerTest, ZxzxzOfHadamard) {
  const auto a = qrc::la::zxzxz_decompose(qrc::la::h_mat());
  EXPECT_TRUE(qrc::la::zxzxz_compose(a).approx_equal(qrc::la::h_mat(), 1e-9));
}

// ----------------------------------------------------------------- KAK ----

TEST(KakTest, JointDiagonalizationOfCommutingSymmetric) {
  // Build two commuting symmetric matrices from a shared eigenbasis.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::array<std::array<double, 4>, 4> q{};
  // Random orthogonal via Gram-Schmidt on a random matrix.
  std::array<std::array<double, 4>, 4> raw{};
  for (auto& row : raw) {
    for (double& v : row) {
      v = val(rng);
    }
  }
  for (int c = 0; c < 4; ++c) {
    std::array<double, 4> col{};
    for (int r = 0; r < 4; ++r) {
      col[static_cast<std::size_t>(r)] =
          raw[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    for (int prev = 0; prev < c; ++prev) {
      double dot = 0.0;
      for (int r = 0; r < 4; ++r) {
        dot += col[static_cast<std::size_t>(r)] *
               q[static_cast<std::size_t>(r)][static_cast<std::size_t>(prev)];
      }
      for (int r = 0; r < 4; ++r) {
        col[static_cast<std::size_t>(r)] -=
            dot *
            q[static_cast<std::size_t>(r)][static_cast<std::size_t>(prev)];
      }
    }
    double nrm = 0.0;
    for (const double v : col) {
      nrm += v * v;
    }
    nrm = std::sqrt(nrm);
    for (int r = 0; r < 4; ++r) {
      q[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          col[static_cast<std::size_t>(r)] / nrm;
    }
  }
  std::array<double, 4> da{};
  std::array<double, 4> db{};
  for (int i = 0; i < 4; ++i) {
    da[static_cast<std::size_t>(i)] = val(rng);
    db[static_cast<std::size_t>(i)] = val(rng);
  }
  std::array<std::array<double, 4>, 4> a{};
  std::array<std::array<double, 4>, 4> b{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
            da[static_cast<std::size_t>(k)] *
            q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
        b[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
            db[static_cast<std::size_t>(k)] *
            q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
      }
    }
  }
  std::array<std::array<double, 4>, 4> rot{};
  ASSERT_TRUE(qrc::la::joint_diagonalize(a, b, rot));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_NEAR(
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 0.0,
            1e-8);
        EXPECT_NEAR(
            b[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 0.0,
            1e-8);
      }
    }
  }
}

TEST(KakTest, DecomposeRandomUnitaries) {
  std::mt19937_64 rng(37);
  for (int i = 0; i < 50; ++i) {
    const Mat4 u = random_unitary4(rng);
    const auto kak = qrc::la::kak_decompose(u);
    ASSERT_TRUE(kak.has_value()) << "iteration " << i;
    EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6)) << "iteration " << i;
  }
}

TEST(KakTest, DecomposeTensorProduct) {
  std::mt19937_64 rng(41);
  const Mat4 u = qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  const auto kak = qrc::la::kak_decompose(u);
  ASSERT_TRUE(kak.has_value());
  EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6));
}

TEST(KakTest, DecomposeCx) {
  const auto kak = qrc::la::kak_decompose(qrc::la::cx01_mat());
  ASSERT_TRUE(kak.has_value());
  EXPECT_TRUE(kak->reconstruct().approx_equal(qrc::la::cx01_mat(), 1e-6));
}

TEST(KakTest, CanonicalizePreservesUnitaryAndReachesWeylChamber) {
  std::mt19937_64 rng(43);
  for (int i = 0; i < 50; ++i) {
    const Mat4 u = random_unitary4(rng);
    auto kak = qrc::la::kak_decompose(u);
    ASSERT_TRUE(kak.has_value()) << "iteration " << i;
    kak->canonicalize();
    EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6)) << "iteration " << i;
    EXPECT_LE(kak->x, kPi / 4.0 + 1e-9) << "iteration " << i;
    EXPECT_GE(kak->x, kak->y - 1e-9) << "iteration " << i;
    EXPECT_GE(kak->y, std::abs(kak->z) - 1e-9) << "iteration " << i;
    EXPECT_GE(kak->y, -1e-9) << "iteration " << i;
  }
}

TEST(KakTest, CanonicalCoordinatesOfCxClass) {
  auto kak = qrc::la::kak_decompose(qrc::la::cx01_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, 0.0, 1e-6);
  EXPECT_NEAR(kak->z, 0.0, 1e-6);
}

TEST(KakTest, CanonicalCoordinatesOfCzMatchCx) {
  auto kak = qrc::la::kak_decompose(qrc::la::cz_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, 0.0, 1e-6);
  EXPECT_NEAR(std::abs(kak->z), 0.0, 1e-6);
}

TEST(KakTest, CanonicalCoordinatesOfSwap) {
  auto kak = qrc::la::kak_decompose(qrc::la::swap_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, kPi / 4.0, 1e-6);
  EXPECT_NEAR(std::abs(kak->z), kPi / 4.0, 1e-6);
}

TEST(KakTest, LocalInvariantsSeparateClasses) {
  const auto id = qrc::la::local_invariants(Mat4::identity());
  const auto cx = qrc::la::local_invariants(qrc::la::cx01_mat());
  const auto swap = qrc::la::local_invariants(qrc::la::swap_mat());
  EXPECT_FALSE(id.approx_equal(cx));
  EXPECT_FALSE(cx.approx_equal(swap));
  EXPECT_FALSE(id.approx_equal(swap));
}

TEST(KakTest, LocalInvariantsInvariantUnderLocals) {
  std::mt19937_64 rng(47);
  for (int i = 0; i < 20; ++i) {
    const Mat4 u = random_unitary4(rng);
    const Mat4 dressed = qrc::la::kron(random_unitary2(rng),
                                       random_unitary2(rng)) *
                         u *
                         qrc::la::kron(random_unitary2(rng),
                                       random_unitary2(rng));
    EXPECT_TRUE(qrc::la::local_invariants(u).approx_equal(
        qrc::la::local_invariants(dressed), 1e-6))
        << "iteration " << i;
  }
}

TEST(KakTest, CanonicalCoordsLocallyInvariant) {
  std::mt19937_64 rng(53);
  for (int i = 0; i < 10; ++i) {
    const Mat4 u = random_unitary4(rng);
    const Mat4 dressed =
        qrc::la::kron(random_unitary2(rng), random_unitary2(rng)) * u *
        qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
    auto ka = qrc::la::kak_decompose(u);
    auto kb = qrc::la::kak_decompose(dressed);
    ASSERT_TRUE(ka.has_value());
    ASSERT_TRUE(kb.has_value());
    ka->canonicalize();
    kb->canonicalize();
    EXPECT_NEAR(ka->x, kb->x, 1e-5) << "iteration " << i;
    EXPECT_NEAR(ka->y, kb->y, 1e-5) << "iteration " << i;
    EXPECT_NEAR(std::abs(ka->z), std::abs(kb->z), 1e-5) << "iteration " << i;
  }
}

// ------------------------------------------------ golden complex products --
//
// Mat2/Mat4 products and kron multiply through la::mul instead of
// std::complex's operator*. The references below are the std::complex
// formulations they replaced; for finite operands the two must agree bit
// for bit. This TU is built with -ffp-contract=off (see CMakeLists.txt) so
// a wider -march cannot fuse the references into FMAs.

/// Entries drawn from values that stress signs and magnitudes: signed
/// zeros, units, tiny and large finite numbers, and random reals.
cplx golden_entry(std::mt19937_64& rng) {
  static const double kSpecial[] = {0.0,  -0.0,  1.0,   -1.0, 0.5,
                                    1e-300, -3e-200, 1e150, -7e120};
  std::uniform_int_distribution<int> pick(0, 12);
  std::uniform_real_distribution<double> real(-2.0, 2.0);
  const auto part = [&] {
    const int k = pick(rng);
    return k < 9 ? kSpecial[k] : real(rng);
  };
  const double re = part();
  return {re, part()};
}

Mat2 golden_mat2(std::mt19937_64& rng) {
  Mat2 m;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      m(i, j) = golden_entry(rng);
    }
  }
  return m;
}

Mat4 golden_mat4(std::mt19937_64& rng) {
  Mat4 m;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      m(i, j) = golden_entry(rng);
    }
  }
  return m;
}

Mat2 reference_product(const Mat2& a, const Mat2& b) {
  Mat2 out;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      cplx acc = 0.0;
      for (int k = 0; k < 2; ++k) {
        acc += a(i, k) * b(k, j);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

Mat2 reference_scaled(const Mat2& a, cplx s) {
  Mat2 out = a;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      out(i, j) *= s;
    }
  }
  return out;
}

Mat4 reference_product(const Mat4& a, const Mat4& b) {
  Mat4 out;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      const cplx aik = a(i, k);
      if (aik == cplx{0.0, 0.0}) {
        continue;
      }
      for (int j = 0; j < 4; ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

Mat4 reference_scaled(const Mat4& a, cplx s) {
  Mat4 out = a;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) *= s;
    }
  }
  return out;
}

Mat4 reference_kron(const Mat2& a, const Mat2& b) {
  Mat4 out;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      for (int k = 0; k < 2; ++k) {
        for (int l = 0; l < 2; ++l) {
          out(i * 2 + k, j * 2 + l) = a(i, j) * b(k, l);
        }
      }
    }
  }
  return out;
}

template <typename M>
bool same_bits(const M& got, const M& want, int dim) {
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const cplx g = got(i, j);
      const cplx w = want(i, j);
      if (std::memcmp(&g, &w, sizeof(cplx)) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(GoldenProductTest, MulMatchesStdComplexOnEveryEntryClass) {
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const cplx a = golden_entry(rng);
    const cplx b = golden_entry(rng);
    const cplx got = qrc::la::mul(a, b);
    const cplx want = a * b;
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(cplx)), 0)
        << a << " * " << b << ": " << got << " vs " << want;
  }
}

TEST(GoldenProductTest, Mat2ProductsMatchStdComplexReference) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const Mat2 a = golden_mat2(rng);
    const Mat2 b = golden_mat2(rng);
    const cplx s = golden_entry(rng);
    ASSERT_TRUE(same_bits(a * b, reference_product(a, b), 2)) << i;
    ASSERT_TRUE(same_bits(a * s, reference_scaled(a, s), 2)) << i;
  }
  // Unitaries as the passes build them.
  for (int i = 0; i < 500; ++i) {
    const Mat2 a = random_unitary2(rng);
    const Mat2 b = random_unitary2(rng);
    ASSERT_TRUE(same_bits(a * b, reference_product(a, b), 2)) << i;
  }
}

TEST(GoldenProductTest, Mat4ProductsAndKronMatchStdComplexReference) {
  std::mt19937_64 rng(12);
  for (int i = 0; i < 3000; ++i) {
    const Mat4 a = golden_mat4(rng);
    const Mat4 b = golden_mat4(rng);
    const cplx s = golden_entry(rng);
    ASSERT_TRUE(same_bits(a * b, reference_product(a, b), 4)) << i;
    ASSERT_TRUE(same_bits(a * s, reference_scaled(a, s), 4)) << i;
    const Mat2 x = golden_mat2(rng);
    const Mat2 y = golden_mat2(rng);
    ASSERT_TRUE(same_bits(qrc::la::kron(x, y), reference_kron(x, y), 4)) << i;
  }
  // Sparse gate matrices (the zero-skip path) and dense unitaries.
  const std::vector<Mat4> gates = {qrc::la::cx01_mat(), qrc::la::cx10_mat(),
                                   qrc::la::cz_mat(), qrc::la::swap_mat(),
                                   qrc::la::iswap_mat()};
  for (int i = 0; i < 500; ++i) {
    const Mat4 u = random_unitary4(rng);
    const Mat4& g = gates[static_cast<std::size_t>(i) % gates.size()];
    ASSERT_TRUE(same_bits(u * g, reference_product(u, g), 4)) << i;
    ASSERT_TRUE(same_bits(g * u, reference_product(g, u), 4)) << i;
  }
}

TEST(GoldenProductTest, StatevectorKernelsMatchStdComplexReference) {
  // Statevector's 1q/2q kernels, global phase and inner product multiply
  // through la::mul; the references are the std::complex loops they
  // replaced.
  using qrc::ir::Statevector;
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + trial % 4;
    Statevector state = Statevector::random(n, 100 + trial);
    std::vector<cplx> want = state.amplitudes();
    const int q0 = trial % n;
    const int q1 = (q0 + 1 + trial % (n - 1)) % n;
    const Mat2 u2 = trial % 2 == 0 ? random_unitary2(rng) : golden_mat2(rng);
    const Mat4 u4 = trial % 2 == 0 ? random_unitary4(rng) : golden_mat4(rng);

    state.apply_matrix(u2, q0);
    const std::size_t bit = std::size_t{1} << q0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if ((i & bit) == 0) {
        const cplx a0 = want[i];
        const cplx a1 = want[i | bit];
        want[i] = u2(0, 0) * a0 + u2(0, 1) * a1;
        want[i | bit] = u2(1, 0) * a0 + u2(1, 1) * a1;
      }
    }

    state.apply_matrix(u4, q0, q1);
    const std::size_t b0 = std::size_t{1} << q0;
    const std::size_t b1 = std::size_t{1} << q1;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if ((i & b0) == 0 && (i & b1) == 0) {
        const std::size_t idx[4] = {i, i | b0, i | b1, i | b0 | b1};
        const cplx a[4] = {want[idx[0]], want[idx[1]], want[idx[2]],
                           want[idx[3]]};
        for (int r = 0; r < 4; ++r) {
          want[idx[r]] = u4(r, 0) * a[0] + u4(r, 1) * a[1] +
                         u4(r, 2) * a[2] + u4(r, 3) * a[3];
        }
      }
    }

    qrc::ir::Circuit phase_only(n);
    phase_only.add_global_phase(0.1 + trial);
    state.apply(phase_only);
    const cplx phase = std::exp(cplx{0.0, phase_only.global_phase()});
    for (cplx& v : want) {
      v *= phase;
    }
    ASSERT_EQ(std::memcmp(state.amplitudes().data(), want.data(),
                          want.size() * sizeof(cplx)),
              0)
        << "trial " << trial;

    const Statevector other = Statevector::random(n, 500 + trial);
    cplx acc = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      acc += std::conj(want[i]) * other.amplitudes()[i];
    }
    const cplx got = state.inner_product(other);
    ASSERT_EQ(std::memcmp(&got, &acc, sizeof(cplx)), 0) << "trial " << trial;
  }
}

}  // namespace
