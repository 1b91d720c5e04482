#include "sched/chunk_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlb::sched {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

class SelfScheduling final : public ChunkPolicy {
 public:
  std::int64_t next(std::int64_t) override { return 1; }
};

class FixedChunk final : public ChunkPolicy {
 public:
  std::int64_t next(std::int64_t remaining) override { return std::min(kFixedChunk, remaining); }
};

class Guided final : public ChunkPolicy {
 public:
  explicit Guided(int procs) : procs_(procs) {}
  std::int64_t next(std::int64_t remaining) override {
    return std::max<std::int64_t>(1, ceil_div(remaining, procs_));
  }

 private:
  int procs_;
};

/// Factoring: work is handed out in batches; each batch takes half the
/// remaining iterations and is split into P equal chunks.
class Factoring final : public ChunkPolicy {
 public:
  explicit Factoring(int procs) : procs_(procs) {}
  std::int64_t next(std::int64_t remaining) override {
    if (chunks_left_ == 0) {
      const std::int64_t batch = std::max<std::int64_t>(1, ceil_div(remaining, 2));
      chunk_size_ = std::max<std::int64_t>(1, ceil_div(batch, procs_));
      chunks_left_ = procs_;
    }
    --chunks_left_;
    return std::min(chunk_size_, remaining);
  }

 private:
  int procs_;
  std::int64_t chunk_size_ = 0;
  int chunks_left_ = 0;
};

/// Trapezoid self-scheduling: chunks decrease linearly from f = ceil(N/2P)
/// to l = 1 over C = ceil(2N / (f + l)) allocations.
class Trapezoid final : public ChunkPolicy {
 public:
  Trapezoid(std::int64_t total, int procs) {
    const std::int64_t f = std::max<std::int64_t>(1, ceil_div(total, 2 * procs));
    const std::int64_t l = 1;
    const std::int64_t c = std::max<std::int64_t>(2, ceil_div(2 * total, f + l));
    current_ = static_cast<double>(f);
    step_ = static_cast<double>(f - l) / static_cast<double>(c - 1);
  }
  std::int64_t next(std::int64_t remaining) override {
    const auto chunk = std::max<std::int64_t>(1, static_cast<std::int64_t>(current_));
    current_ = std::max(1.0, current_ - step_);
    return std::min(chunk, remaining);
  }

 private:
  double current_;
  double step_;
};

}  // namespace

const char* queue_scheme_name(QueueScheme s) noexcept {
  switch (s) {
    case QueueScheme::kSelfScheduling:
      return "SS";
    case QueueScheme::kFixedChunk:
      return "FSC";
    case QueueScheme::kGuided:
      return "GSS";
    case QueueScheme::kFactoring:
      return "FAC";
    case QueueScheme::kTrapezoid:
      return "TSS";
  }
  return "?";
}

std::unique_ptr<ChunkPolicy> make_chunk_policy(QueueScheme scheme, std::int64_t total_iterations,
                                               int procs) {
  if (procs < 1) throw std::invalid_argument("make_chunk_policy: procs < 1");
  if (total_iterations < 0) throw std::invalid_argument("make_chunk_policy: negative total");
  switch (scheme) {
    case QueueScheme::kSelfScheduling:
      return std::make_unique<SelfScheduling>();
    case QueueScheme::kFixedChunk:
      return std::make_unique<FixedChunk>();
    case QueueScheme::kGuided:
      return std::make_unique<Guided>(procs);
    case QueueScheme::kFactoring:
      return std::make_unique<Factoring>(procs);
    case QueueScheme::kTrapezoid:
      return std::make_unique<Trapezoid>(std::max<std::int64_t>(total_iterations, 1), procs);
  }
  throw std::invalid_argument("make_chunk_policy: unknown scheme");
}

}  // namespace dlb::sched
