#include "apps/trfd.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb::apps {

std::int64_t trfd_array_dim(int n) {
  if (n < 1) throw std::invalid_argument("trfd: n must be positive");
  return static_cast<std::int64_t>(n) * (n + 1) / 2;
}

double trfd_loop2_unfolded_work(int n, std::int64_t j) {
  if (j < 1 || j > trfd_array_dim(n)) throw std::out_of_range("trfd: loop-2 index out of range");
  const double dn = static_cast<double>(n);
  const double i = (1.0 + std::sqrt(-7.0 + 8.0 * static_cast<double>(j))) / 2.0;
  return dn * dn * dn + 3.0 * dn * dn + dn * (1.0 + i / 2.0 - i * i / 2.0) + (i - i * i);
}

core::AppDescriptor make_trfd(const TrfdParams& params) {
  const int n = params.n;
  const std::int64_t N = trfd_array_dim(n);
  const double dn = static_cast<double>(n);
  const double column_bytes = static_cast<double>(N) * 8.0;

  core::LoopDescriptor loop1;
  loop1.name = "trfd-l1";
  loop1.iterations = N;
  const double w1 = dn * dn * dn + 3.0 * dn * dn + dn;
  loop1.work_ops = [w1](std::int64_t) { return w1; };
  loop1.bytes_per_iteration = column_bytes;

  // Loop 2 is triangular; the compiler folds it into a uniform loop by
  // bitonic scheduling [Cierniak/Li/Zaki 95]: folded iteration k combines
  // unfolded iterations k+1 and N-k (1-indexed), the middle one (odd N)
  // standing alone.
  core::LoopDescriptor loop2;
  loop2.name = "trfd-l2";
  loop2.iterations = (N + 1) / 2;
  loop2.work_ops = [n, N](std::int64_t k) {
    const std::int64_t first = k + 1;
    const std::int64_t second = N - k;
    double work = trfd_loop2_unfolded_work(n, first);
    if (second != first) work += trfd_loop2_unfolded_work(n, second);
    return work;
  };
  // Each folded iteration owns two columns of the array.
  loop2.bytes_per_iteration = 2.0 * column_bytes;

  core::SequentialPhase transpose;
  transpose.gather_bytes_per_iteration = column_bytes;
  transpose.master_ops = static_cast<double>(N) * static_cast<double>(N);
  transpose.scatter_bytes_total = static_cast<double>(N) * column_bytes;  // the N^2 array
  core::AppDescriptor app;
  app.name = "TRFD";
  app.loops.push_back(std::move(loop1));
  app.loops.push_back(std::move(loop2));
  app.phases.push_back(transpose);
  return app;
}

}  // namespace dlb::apps
