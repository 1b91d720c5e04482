#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlb::support {

/// A fitted polynomial c0 + c1 x + ... + cd x^d.
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<double> coefficients) : coeffs_(std::move(coefficients)) {}

  [[nodiscard]] double operator()(double x) const noexcept;
  [[nodiscard]] std::size_t degree() const noexcept {
    return coeffs_.empty() ? 0 : coeffs_.size() - 1;
  }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return coeffs_; }

 private:
  std::vector<double> coeffs_;
};

/// Least-squares fit of a degree-`degree` polynomial through (x, y) samples,
/// solved via the normal equations with partial-pivot Gaussian elimination.
/// This mirrors the paper's §6.1 off-line network characterization, where the
/// measured one-to-all / all-to-one / all-to-all costs are "polyfit" into cost
/// functions used by the model.
///
/// Requires x.size() == y.size() and x.size() >= degree + 1.
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] Polynomial polyfit(std::span<const double> x, std::span<const double> y,
                                 std::size_t degree);

/// Solves A x = b in place (A is n x n row-major).  Partial pivoting.
/// Throws std::runtime_error if the system is singular.
[[nodiscard]] std::vector<double> solve_linear(std::vector<double> a, std::vector<double> b);

/// Coefficient of determination (R^2) of a fit against samples.
[[nodiscard]] double r_squared(const Polynomial& p, std::span<const double> x,
                               std::span<const double> y);

}  // namespace dlb::support
