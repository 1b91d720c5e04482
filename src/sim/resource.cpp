#include "sim/resource.hpp"

namespace dlb::sim {

void Resource::release() {
  if (!held_) throw std::logic_error("Resource: release without acquire");
  if (waiters_.empty()) {
    held_ = false;
    return;
  }
  // The lock passes to the waiter before it resumes.
  engine_.schedule_resume(engine_.now(), waiters_.pop_front());
}

}  // namespace dlb::sim
