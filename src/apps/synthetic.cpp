#include "apps/synthetic.hpp"

#include <stdexcept>

namespace dlb::apps {

namespace {

core::AppDescriptor wrap(const char* name, core::LoopDescriptor loop) {
  core::AppDescriptor app;
  app.name = name;
  app.loops.push_back(std::move(loop));
  return app;
}

}  // namespace

core::AppDescriptor make_uniform(std::int64_t iterations, double ops_per_iteration,
                                 double bytes_per_iteration) {
  if (ops_per_iteration < 0.0) throw std::invalid_argument("make_uniform: negative work");
  core::LoopDescriptor loop;
  loop.name = "uniform";
  loop.iterations = iterations;
  loop.work_ops = [ops_per_iteration](std::int64_t) { return ops_per_iteration; };
  loop.bytes_per_iteration = bytes_per_iteration;
  return wrap("synthetic-uniform", std::move(loop));
}

core::AppDescriptor make_triangular(std::int64_t iterations, double ops_max, double ops_min,
                                    double bytes_per_iteration) {
  if (ops_max < ops_min) throw std::invalid_argument("make_triangular: ops_max < ops_min");
  core::LoopDescriptor loop;
  loop.name = "triangular";
  loop.iterations = iterations;
  loop.work_ops = [=](std::int64_t j) {
    if (iterations <= 1) return ops_max;
    const double t = static_cast<double>(j) / static_cast<double>(iterations - 1);
    return ops_max - (ops_max - ops_min) * t;
  };
  loop.bytes_per_iteration = bytes_per_iteration;
  return wrap("synthetic-triangular", std::move(loop));
}

core::AppDescriptor make_stencil(std::int64_t iterations, double ops_per_iteration,
                                 double bytes_per_iteration, double intrinsic_bytes) {
  auto app = make_uniform(iterations, ops_per_iteration, bytes_per_iteration);
  app.name = "synthetic-stencil";
  app.loops[0].name = "stencil";
  app.loops[0].intrinsic_bytes_per_iteration = intrinsic_bytes;
  return app;
}

core::AppDescriptor make_sawtooth(std::int64_t iterations, double ops_a, double ops_b,
                                  double bytes_per_iteration) {
  core::LoopDescriptor loop;
  loop.name = "sawtooth";
  loop.iterations = iterations;
  loop.work_ops = [=](std::int64_t j) { return (j % 2 == 0) ? ops_a : ops_b; };
  loop.bytes_per_iteration = bytes_per_iteration;
  return wrap("synthetic-sawtooth", std::move(loop));
}

}  // namespace dlb::apps
