#include "la/mat4.hpp"

#include <cmath>
#include <sstream>

namespace qrc::la {

Mat4 Mat4::identity() {
  Mat4 out;
  for (int i = 0; i < 4; ++i) {
    out(i, i) = 1.0;
  }
  return out;
}

Mat4 Mat4::operator*(const Mat4& rhs) const {
  Mat4 out;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      const cplx aik = (*this)(i, k);
      if (aik == cplx{0.0, 0.0}) {
        continue;
      }
      for (int j = 0; j < 4; ++j) {
        out(i, j) += mul(aik, rhs(k, j));
      }
    }
  }
  return out;
}

Mat4 Mat4::operator*(cplx scalar) const {
  Mat4 out = *this;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) = mul(out(i, j), scalar);
    }
  }
  return out;
}

Mat4 Mat4::operator+(const Mat4& rhs) const {
  Mat4 out = *this;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) += rhs(i, j);
    }
  }
  return out;
}

Mat4 Mat4::operator-(const Mat4& rhs) const {
  Mat4 out = *this;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) -= rhs(i, j);
    }
  }
  return out;
}

Mat4 Mat4::adjoint() const {
  Mat4 out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) = std::conj((*this)(j, i));
    }
  }
  return out;
}

Mat4 Mat4::transpose() const {
  Mat4 out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out(i, j) = (*this)(j, i);
    }
  }
  return out;
}

cplx Mat4::trace() const {
  return (*this)(0, 0) + (*this)(1, 1) + (*this)(2, 2) + (*this)(3, 3);
}

namespace {

/// Determinant of a 3x3 minor of `m` obtained by deleting row `r` and
/// column `c`.
cplx minor3(const Mat4& m, int r, int c) {
  std::array<cplx, 9> sub{};
  int idx = 0;
  for (int i = 0; i < 4; ++i) {
    if (i == r) {
      continue;
    }
    for (int j = 0; j < 4; ++j) {
      if (j == c) {
        continue;
      }
      sub[static_cast<std::size_t>(idx++)] = m(i, j);
    }
  }
  return sub[0] * (sub[4] * sub[8] - sub[5] * sub[7]) -
         sub[1] * (sub[3] * sub[8] - sub[5] * sub[6]) +
         sub[2] * (sub[3] * sub[7] - sub[4] * sub[6]);
}

}  // namespace

cplx Mat4::det() const {
  cplx acc = 0.0;
  double sign = 1.0;
  for (int j = 0; j < 4; ++j) {
    acc += sign * (*this)(0, j) * minor3(*this, 0, j);
    sign = -sign;
  }
  return acc;
}

double Mat4::norm() const {
  double acc = 0.0;
  for (const cplx& v : m_) {
    acc += std::norm(v);
  }
  return std::sqrt(acc);
}

bool Mat4::is_unitary(double atol) const {
  const Mat4 prod = (*this) * adjoint();
  return prod.approx_equal(identity(), atol);
}

bool Mat4::approx_equal(const Mat4& rhs, double atol) const {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (!la::approx_equal((*this)(i, j), rhs(i, j), atol)) {
        return false;
      }
    }
  }
  return true;
}

bool Mat4::equal_up_to_phase(const Mat4& rhs, double atol) const {
  int bi = 0;
  int bj = 0;
  double best = -1.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double mag = std::abs(rhs(i, j));
      if (mag > best) {
        best = mag;
        bi = i;
        bj = j;
      }
    }
  }
  if (best <= atol) {
    return approx_equal(rhs, atol);
  }
  const cplx ratio = (*this)(bi, bj) / rhs(bi, bj);
  if (std::abs(std::abs(ratio) - 1.0) > atol * 100.0) {
    return false;
  }
  return approx_equal(rhs * ratio, atol * 100.0);
}

std::string Mat4::to_string() const {
  std::ostringstream os;
  os.precision(6);
  for (int i = 0; i < 4; ++i) {
    os << "[ ";
    for (int j = 0; j < 4; ++j) {
      const cplx v = (*this)(i, j);
      os << v.real() << (v.imag() >= 0 ? "+" : "") << v.imag() << "i ";
    }
    os << "]\n";
  }
  return os.str();
}

Mat4 kron(const Mat2& a, const Mat2& b) {
  Mat4 out;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      for (int k = 0; k < 2; ++k) {
        for (int l = 0; l < 2; ++l) {
          out(i * 2 + k, j * 2 + l) = mul(a(i, j), b(k, l));
        }
      }
    }
  }
  return out;
}

bool decompose_tensor_product(const Mat4& m, Mat2& a, Mat2& b, double atol) {
  // Blocks of m: m = [[a00*B, a01*B], [a10*B, a11*B]]. Find the block with
  // the largest norm to extract B, then recover A entrywise.
  int bi = 0;
  int bj = 0;
  double best = -1.0;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      double acc = 0.0;
      for (int k = 0; k < 2; ++k) {
        for (int l = 0; l < 2; ++l) {
          acc += std::norm(m(i * 2 + k, j * 2 + l));
        }
      }
      if (acc > best) {
        best = acc;
        bi = i;
        bj = j;
      }
    }
  }
  if (best <= atol) {
    return false;
  }
  Mat2 block;
  for (int k = 0; k < 2; ++k) {
    for (int l = 0; l < 2; ++l) {
      block(k, l) = m(bi * 2 + k, bj * 2 + l);
    }
  }
  // Normalise the block to unit determinant magnitude so B is unitary-like.
  const double bnorm = block.norm() / std::sqrt(2.0);
  if (bnorm <= atol) {
    return false;
  }
  b = block * cplx{1.0 / bnorm, 0.0};
  // a(i, j) = <B, block(i, j)> / <B, B> with Frobenius inner product.
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      cplx acc = 0.0;
      for (int k = 0; k < 2; ++k) {
        for (int l = 0; l < 2; ++l) {
          acc += std::conj(b(k, l)) * m(i * 2 + k, j * 2 + l);
        }
      }
      a(i, j) = acc / 2.0;
    }
  }
  return kron(a, b).approx_equal(m, std::max(atol, 1e-7));
}

Mat4 cx01_mat() {
  // Control = qubit 0 (low bit), target = qubit 1 (high bit).
  Mat4 out;
  out(0, 0) = 1.0;  // |00> -> |00>
  out(1, 3) = 1.0;  // |01> -> |11>
  out(2, 2) = 1.0;  // |10> -> |10>
  out(3, 1) = 1.0;  // |11> -> |01>
  return out;
}

Mat4 cx10_mat() {
  // Control = qubit 1 (high bit), target = qubit 0 (low bit).
  Mat4 out;
  out(0, 0) = 1.0;
  out(1, 1) = 1.0;
  out(2, 3) = 1.0;
  out(3, 2) = 1.0;
  return out;
}

Mat4 cz_mat() {
  Mat4 out = Mat4::identity();
  out(3, 3) = -1.0;
  return out;
}

Mat4 swap_mat() {
  Mat4 out;
  out(0, 0) = 1.0;
  out(1, 2) = 1.0;
  out(2, 1) = 1.0;
  out(3, 3) = 1.0;
  return out;
}

Mat4 iswap_mat() {
  Mat4 out;
  out(0, 0) = 1.0;
  out(1, 2) = cplx{0.0, 1.0};
  out(2, 1) = cplx{0.0, 1.0};
  out(3, 3) = 1.0;
  return out;
}

Mat4 canonical_gate(double x, double y, double z) {
  // XX, YY, ZZ commute and square to identity, so
  // exp(i(x XX + y YY + z ZZ)) = prod over terms of (cos t I + i sin t P).
  const Mat4 xx = kron(x_mat(), x_mat());
  const Mat4 yy = kron(y_mat(), y_mat());
  const Mat4 zz = kron(z_mat(), z_mat());
  const auto term = [](const Mat4& p, double t) {
    Mat4 out = Mat4::identity() * cplx{std::cos(t), 0.0};
    out = out + p * cplx{0.0, std::sin(t)};
    return out;
  };
  return term(xx, x) * term(yy, y) * term(zz, z);
}

}  // namespace qrc::la
