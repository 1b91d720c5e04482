// Linted as src/core/corpus_recorder_guard.cpp: observability pointers are
// null when recording is disarmed; calling through without a check crashes
// exactly when the user turns recording off.
#include "obs/recorder.hpp"

namespace dlb::core {

struct Ctx {
  obs::Recorder* obs = nullptr;
};

void note(Ctx& ctx, int proc) {
  ctx.obs->instant(proc, obs::InstantKind::kInterrupt, 0);
}

void count(Ctx& ctx, int proc) {
  ctx.obs->activity(proc, obs::ActivityKind::kCompute, 0, 1);
}

}  // namespace dlb::core
