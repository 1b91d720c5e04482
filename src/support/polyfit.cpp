#include "support/polyfit.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb::support {

double Polynomial::operator()(double x) const noexcept {
  double acc = 0.0;
  for (std::size_t i = coeffs_.size(); i-- > 0;) acc = acc * x + coeffs_[i];
  return acc;
}

std::vector<double> solve_linear(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n * n) throw std::invalid_argument("solve_linear: dimension mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at or below the diagonal.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) pivot = row;
    }
    if (std::abs(a[pivot * n + col]) < 1e-14)
      throw std::runtime_error("solve_linear: singular system");
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row * n + k] -= factor * a[col * n + k];
      b[row] -= factor * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (std::size_t k = row + 1; k < n; ++k) acc -= a[row * n + k] * x[k];
    x[row] = acc / a[row * n + row];
  }
  return x;
}

Polynomial polyfit(std::span<const double> x, std::span<const double> y, std::size_t degree) {
  if (x.size() != y.size()) throw std::invalid_argument("polyfit: x/y size mismatch");
  const std::size_t n = degree + 1;
  if (x.size() < n) throw std::invalid_argument("polyfit: not enough samples for degree");

  // Normal equations: (V^T V) c = V^T y with Vandermonde V.
  std::vector<double> ata(n * n, 0.0);
  std::vector<double> aty(n, 0.0);
  for (std::size_t s = 0; s < x.size(); ++s) {
    std::vector<double> powers(2 * n - 1, 1.0);
    for (std::size_t p = 1; p < powers.size(); ++p) powers[p] = powers[p - 1] * x[s];
    for (std::size_t i = 0; i < n; ++i) {
      aty[i] += powers[i] * y[s];
      for (std::size_t j = 0; j < n; ++j) ata[i * n + j] += powers[i + j];
    }
  }
  return Polynomial(solve_linear(std::move(ata), std::move(aty)));
}

double r_squared(const Polynomial& p, std::span<const double> x, std::span<const double> y) {
  if (x.empty() || x.size() != y.size()) throw std::invalid_argument("r_squared: bad samples");
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - p(x[i]);
    ss_res += r * r;
    const double d = y[i] - mean;
    ss_tot += d * d;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace dlb::support
