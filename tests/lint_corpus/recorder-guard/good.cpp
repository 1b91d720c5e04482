// Linted as src/core/corpus_recorder_guard.cpp: the arming idiom — every
// instrumentation site guards on the pointer first.
#include "obs/recorder.hpp"

namespace dlb::core {

struct Ctx {
  obs::Recorder* obs = nullptr;
};

void note(Ctx& ctx, int proc) {
  if (ctx.obs != nullptr) {
    ctx.obs->instant(proc, obs::InstantKind::kInterrupt, 0);
  }
}

void count(Ctx& ctx, int proc) {
  if (ctx.obs != nullptr) ctx.obs->activity(proc, obs::ActivityKind::kCompute, 0, 1);
}

}  // namespace dlb::core
