#include "apps/mxm.hpp"

#include <stdexcept>

namespace dlb::apps {

core::AppDescriptor make_mxm(const MxmParams& params) {
  if (params.R < 1 || params.C < 1 || params.R2 < 1) {
    throw std::invalid_argument("make_mxm: dimensions must be positive");
  }
  const double work = static_cast<double>(params.C) * static_cast<double>(params.R2);

  core::LoopDescriptor loop;
  loop.name = "mxm";
  loop.iterations = params.R;
  loop.work_ops = [work](std::int64_t) { return work; };
  loop.bytes_per_iteration = static_cast<double>(params.C) * 8.0;  // DC = C doubles

  core::AppDescriptor app;
  app.name = "MXM";
  app.loops.push_back(std::move(loop));
  return app;
}

}  // namespace dlb::apps
