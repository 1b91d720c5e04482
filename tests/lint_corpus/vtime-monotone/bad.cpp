// Linted as src/load/corpus_vtime_monotone.cpp: subtraction feeding the
// engine's time sinks can produce a virtual time before now(), which the
// engine silently clamps to now().  The rule catches the direct form and
// the one-assignment-away form.

namespace dlb::load {

struct FakeEngine {
  long now() { return 0; }
  void schedule_at(long, int) {}
  void advance_to(long) {}
};

void reschedule(FakeEngine& engine, long deadline, long grace) {
  engine.schedule_at(deadline - grace, 1);  // vtime-monotone: direct subtraction
  const long catchup = deadline - 2 * grace;
  engine.advance_to(catchup);  // vtime-monotone: via the assignment above
}

}  // namespace dlb::load
