#include "la/mat2.hpp"

#include <cmath>
#include <sstream>

namespace qrc::la {

Mat2 Mat2::operator*(const Mat2& rhs) const {
  Mat2 out;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      cplx acc = 0.0;
      for (int k = 0; k < 2; ++k) {
        acc += mul((*this)(i, k), rhs(k, j));
      }
      out(i, j) = acc;
    }
  }
  return out;
}

Mat2 Mat2::operator*(cplx scalar) const {
  Mat2 out = *this;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      out(i, j) = mul(out(i, j), scalar);
    }
  }
  return out;
}

Mat2 Mat2::operator+(const Mat2& rhs) const {
  Mat2 out = *this;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      out(i, j) += rhs(i, j);
    }
  }
  return out;
}

Mat2 Mat2::operator-(const Mat2& rhs) const {
  Mat2 out = *this;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      out(i, j) -= rhs(i, j);
    }
  }
  return out;
}

Mat2 Mat2::adjoint() const {
  Mat2 out;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      out(i, j) = std::conj((*this)(j, i));
    }
  }
  return out;
}

cplx Mat2::det() const { return m_[0] * m_[3] - m_[1] * m_[2]; }

cplx Mat2::trace() const { return m_[0] + m_[3]; }

double Mat2::norm() const {
  double acc = 0.0;
  for (const cplx& v : m_) {
    acc += std::norm(v);
  }
  return std::sqrt(acc);
}

bool Mat2::is_unitary(double atol) const {
  const Mat2 prod = (*this) * adjoint();
  return prod.approx_equal(identity(), atol);
}

bool Mat2::approx_equal(const Mat2& rhs, double atol) const {
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      if (!la::approx_equal((*this)(i, j), rhs(i, j), atol)) {
        return false;
      }
    }
  }
  return true;
}

bool Mat2::equal_up_to_phase(const Mat2& rhs, double atol) const {
  // Find the largest-magnitude entry of rhs and align phases on it.
  int bi = 0;
  int bj = 0;
  double best = -1.0;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
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
  if (std::abs(std::abs(ratio) - 1.0) > atol * 10.0) {
    return false;
  }
  return approx_equal(rhs * ratio, atol * 10.0);
}

std::string Mat2::to_string() const {
  std::ostringstream os;
  os.precision(6);
  for (int i = 0; i < 2; ++i) {
    os << "[ ";
    for (int j = 0; j < 2; ++j) {
      const cplx v = (*this)(i, j);
      os << v.real() << (v.imag() >= 0 ? "+" : "") << v.imag() << "i ";
    }
    os << "]\n";
  }
  return os.str();
}

Mat2 rz_mat(double theta) {
  const cplx e = std::exp(cplx{0.0, -theta / 2.0});
  return Mat2{e, 0.0, 0.0, std::conj(e)};
}

Mat2 ry_mat(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return Mat2{c, -s, s, c};
}

Mat2 rx_mat(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return Mat2{c, cplx{0.0, -s}, cplx{0.0, -s}, c};
}

Mat2 p_mat(double lambda) {
  return Mat2{1.0, 0.0, 0.0, std::exp(cplx{0.0, lambda})};
}

Mat2 u3_mat(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return Mat2{c, -std::exp(cplx{0.0, lambda}) * s,
              std::exp(cplx{0.0, phi}) * s,
              std::exp(cplx{0.0, phi + lambda}) * c};
}

Mat2 x_mat() { return Mat2{0.0, 1.0, 1.0, 0.0}; }
Mat2 y_mat() { return Mat2{0.0, cplx{0.0, -1.0}, cplx{0.0, 1.0}, 0.0}; }
Mat2 z_mat() { return Mat2{1.0, 0.0, 0.0, -1.0}; }

Mat2 h_mat() {
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  return Mat2{inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
}

Mat2 s_mat() { return Mat2{1.0, 0.0, 0.0, cplx{0.0, 1.0}}; }
Mat2 sdg_mat() { return Mat2{1.0, 0.0, 0.0, cplx{0.0, -1.0}}; }

Mat2 t_mat() {
  return Mat2{1.0, 0.0, 0.0, std::exp(cplx{0.0, kPi / 4.0})};
}
Mat2 tdg_mat() {
  return Mat2{1.0, 0.0, 0.0, std::exp(cplx{0.0, -kPi / 4.0})};
}

Mat2 sx_mat() {
  const cplx p{0.5, 0.5};
  const cplx m{0.5, -0.5};
  return Mat2{p, m, m, p};
}

Mat2 sxdg_mat() { return sx_mat().adjoint(); }

}  // namespace qrc::la
