#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace dlb::sim {

namespace {
constexpr std::size_t kCallChunk = 64;  // CallNodes allocated per pool growth

// Active shard context for the calling thread: established by
// Engine::ShardScope at setup time and by the window loop while a shard
// executes.  Sharded entry points consult it to route per-shard state;
// unsharded engines never read it.
thread_local Engine* t_shard_engine = nullptr;
thread_local int t_shard_index = -1;
}  // namespace

Engine::~Engine() {
  if (shards_.empty()) {
    // Destroy still-suspended process frames first (mirrors the pre-pool
    // teardown order: frames before pending event callables).  Inner Task
    // frames are destroyed transitively as the owning frames unwind.
    Process::promise_type* p = live_head_;
    while (p != nullptr) {
      Process::promise_type* next = p->next_live;
      Process::Handle::from_promise(*p).destroy();
      p = next;
    }
    // Drop the callables still parked in undelivered events; the chunk vector
    // then releases the node memory itself.
    events_.visit_all([](const Event& ev) {
      if (ev.is_call) {
        auto* node = reinterpret_cast<CallNode*>(ev.payload);
        node->drop(*node);
      }
    });
    return;
  }
  // Sharded teardown, one shard at a time under its arena bind so every
  // frame deallocation lands in the arena that allocated it (the Handle
  // releases its slabs right after).
  for (auto& sp : shards_) {
    Shard& s = *sp;
    FrameArena::Bind bind(s.arena);
    Process::promise_type* p = s.live_head;
    while (p != nullptr) {
      Process::promise_type* next = p->next_live;
      Process::Handle::from_promise(*p).destroy();
      p = next;
    }
    s.events.visit_all([](const Event& ev) {
      if (ev.is_call) {
        auto* node = reinterpret_cast<CallNode*>(ev.payload);
        node->drop(*node);
      }
    });
    // Outboxes are plain owning values; their destructors run with the
    // shard vector itself.
  }
}

Engine::CallNode* Engine::pool_acquire(std::vector<std::unique_ptr<CallNode[]>>& chunks,
                                       CallNode*& free_list) {
  if (free_list == nullptr) {
    // Pool exhausted: grow by a chunk, never fail an in-flight schedule.
    // dlblint:allow(hotpath-alloc) chunked pool growth is the sanctioned allocation point
    auto chunk = std::make_unique<CallNode[]>(kCallChunk);
    for (std::size_t i = 0; i < kCallChunk; ++i) {
      chunk[i].next_free = free_list;
      free_list = &chunk[i];
    }
    chunks.push_back(std::move(chunk));
  }
  CallNode* node = free_list;
  free_list = node->next_free;
  return node;
}

void Engine::pool_release(CallNode*& free_list, CallNode* node) noexcept {
  ++node->gen;  // stale Timer handles must no longer match
  node->cancelled = false;
  node->next_free = free_list;
  free_list = node;
}

Engine::Shard& Engine::ctx_shard() noexcept {
  // Contract: a sharded engine is only entered under a ShardScope or from
  // inside a window task.  A violation would silently corrupt determinism,
  // so fail hard instead of guessing a shard.
  if (t_shard_engine != this || t_shard_index < 0) std::abort();
  return *shards_[static_cast<std::size_t>(t_shard_index)];
}

Engine::CallNode* Engine::acquire_call_node() {
  if (shards_.empty()) return pool_acquire(call_chunks_, free_calls_);
  Shard& s = ctx_shard();
  return pool_acquire(s.call_chunks, s.free_calls);
}

void Engine::release_call_node(CallNode* node) noexcept {
  if (shards_.empty()) {
    pool_release(free_calls_, node);
    return;
  }
  pool_release(ctx_shard().free_calls, node);
}

void Engine::push_call_event(SimTime at, CallNode* node) noexcept {
  if (shards_.empty()) {
    push_event(Event{std::max(at, now_), next_seq_++,
                     reinterpret_cast<std::uintptr_t>(node), true});
    return;
  }
  Shard& s = ctx_shard();
  s.push(Event{std::max(at, s.now), s.next_seq++,
               reinterpret_cast<std::uintptr_t>(node), true});
}

void Engine::sharded_schedule_resume(SimTime at, std::coroutine_handle<> h) noexcept {
  Shard& s = ctx_shard();
  s.push(Event{at < s.now ? s.now : at, s.next_seq++,
               reinterpret_cast<std::uintptr_t>(h.address()), false});
}

void Engine::spawn(Process p) {
  if (shards_.empty()) {
    const Process::Handle h = p.release();
    auto& promise = h.promise();
    promise.engine = this;
    promise.on_done = &Engine::process_done_hook;
    promise.prev_live = nullptr;
    promise.next_live = live_head_;
    if (live_head_ != nullptr) live_head_->prev_live = &promise;
    live_head_ = &promise;
    schedule_resume(now_, h);
    return;
  }
  if (t_shard_engine != this || t_shard_index < 0) {
    throw std::logic_error("sharded Engine::spawn requires an active ShardScope");
  }
  Shard& s = *shards_[static_cast<std::size_t>(t_shard_index)];
  const Process::Handle h = p.release();
  auto& promise = h.promise();
  promise.engine = this;
  promise.on_done = &Engine::process_done_hook;
  promise.shard = t_shard_index;
  promise.prev_live = nullptr;
  promise.next_live = s.live_head;
  if (s.live_head != nullptr) s.live_head->prev_live = &promise;
  s.live_head = &promise;
  s.push(Event{s.now, s.next_seq++, reinterpret_cast<std::uintptr_t>(h.address()), false});
}

void Engine::process_done_hook(void* engine, Process::Handle h) noexcept {
  static_cast<Engine*>(engine)->on_process_done(h);
}

void Engine::on_process_done(Process::Handle h) noexcept {
  auto& promise = h.promise();
  if (shards_.empty()) {
    if (promise.prev_live != nullptr) {
      promise.prev_live->next_live = promise.next_live;
    } else {
      live_head_ = promise.next_live;
    }
    if (promise.next_live != nullptr) promise.next_live->prev_live = promise.prev_live;
    if (promise.exception && !pending_) pending_ = promise.exception;
  } else {
    Shard& s = *shards_[static_cast<std::size_t>(promise.shard)];
    if (promise.prev_live != nullptr) {
      promise.prev_live->next_live = promise.next_live;
    } else {
      s.live_head = promise.next_live;
    }
    if (promise.next_live != nullptr) promise.next_live->prev_live = promise.prev_live;
    if (promise.exception && !s.pending) s.pending = promise.exception;
  }
  h.destroy();
}

void Engine::dispatch(const Event& ev) {
  if (ev.is_call) {
    auto* node = reinterpret_cast<CallNode*>(ev.payload);
    // The node returns to the pool even if the callable throws; run()
    // destroys the callable itself.
    struct Return {
      Engine* engine;
      CallNode* node;
      ~Return() { engine->release_call_node(node); }
    } guard{this, node};
    node->run(*node);
  } else {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload)).resume();
  }
}

SimTime Engine::run() { return run_until(kTimeInfinity); }

SimTime Engine::run_until(SimTime deadline) {
  if (deadline < now()) return now();
  if (!shards_.empty()) return run_sharded(deadline);
  // The cancellation check happens when an event reaches the queue front —
  // i.e. when it becomes the global (at, seq) minimum — so a flag set at any
  // earlier point, even at the same timestamp, is honoured.
  while (!events_.empty()) {
    const Event ev = events_.front();
    if (ev.is_call) {
      auto* node = reinterpret_cast<CallNode*>(ev.payload);
      if (node->cancelled) {
        // Cancelled callback: discard without advancing virtual time or
        // counting an executed event.
        events_.pop_front();
        node->drop(*node);
        release_call_node(node);
        continue;
      }
    }
    if (ev.at > deadline) {
      now_ = deadline;
      return now_;
    }
    events_.pop_front();
    now_ = ev.at;
    ++events_executed_;
    dispatch(ev);
    if (pending_) {
      std::rethrow_exception(std::exchange(pending_, nullptr));
    }
  }
  return now_;
}

void Engine::configure_shards(int shards, SimTime lookahead) {
  if (shards < 1) throw std::invalid_argument("Engine::configure_shards: shards must be >= 1");
  if (shards == 1) return;  // stays on the unsharded legacy path
  if (!shards_.empty()) throw std::logic_error("Engine::configure_shards: already sharded");
  if (now_ != 0 || events_executed_ != 0 || !events_.empty() || live_head_ != nullptr) {
    throw std::logic_error("Engine::configure_shards: engine has already been used");
  }
  if (lookahead <= 0) {
    throw std::invalid_argument("Engine::configure_shards: lookahead must be positive");
  }
  lookahead_ = lookahead;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    // dlblint:allow(hotpath-alloc) shards are created once, at configure time
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->outbox.resize(static_cast<std::size_t>(shards));
  }
}

Engine::ShardScope::ShardScope(Engine& engine, int shard)
    : prev_engine_(t_shard_engine), prev_shard_(t_shard_index) {
  if (engine.shards_.empty()) return;  // unsharded: scope is a no-op
  if (shard < 0 || shard >= static_cast<int>(engine.shards_.size())) {
    throw std::out_of_range("Engine::ShardScope: shard index out of range");
  }
  t_shard_engine = &engine;
  t_shard_index = shard;
  bind_.emplace(engine.shards_[static_cast<std::size_t>(shard)]->arena);
}

Engine::ShardScope::~ShardScope() {
  t_shard_engine = prev_engine_;
  t_shard_index = prev_shard_;
  // bind_ (if engaged) unbinds after this body, restoring the previous
  // arena target symmetrically.
}

void Engine::run_window(std::size_t shard, SimTime end) {
  Shard& s = *shards_[shard];
  FrameArena::Bind bind(s.arena);
  Engine* const prev_engine = t_shard_engine;
  const int prev_index = t_shard_index;
  t_shard_engine = this;
  t_shard_index = static_cast<int>(shard);
  while (!s.events.empty()) {
    const Event ev = s.events.front();
    if (ev.is_call) {
      auto* node = reinterpret_cast<CallNode*>(ev.payload);
      if (node->cancelled) {
        s.events.pop_front();
        node->drop(*node);
        pool_release(s.free_calls, node);
        continue;
      }
    }
    if (ev.at >= end) break;
    s.events.pop_front();
    s.now = ev.at;
    ++s.events_executed;
    try {
      dispatch(ev);
    } catch (...) {
      if (!s.pending) s.pending = std::current_exception();
    }
    if (s.pending) break;  // surface at the barrier, like the legacy rethrow
  }
  t_shard_engine = prev_engine;
  t_shard_index = prev_index;
}

SimTime Engine::run_sharded(SimTime deadline) {
  const std::size_t n = shards_.size();
  ShardExecutor& exec = executor_ != nullptr ? *executor_ : inline_executor_;
  for (;;) {
    // Single-threaded between windows: discard cancelled callbacks parked
    // at the queue fronts (mirrors the legacy loop's front discard), then
    // take the global minimum as the window base.
    SimTime window = kTimeInfinity;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      while (!s.events.empty()) {
        const Event ev = s.events.front();
        if (ev.is_call) {
          auto* node = reinterpret_cast<CallNode*>(ev.payload);
          if (node->cancelled) {
            s.events.pop_front();
            node->drop(*node);
            pool_release(s.free_calls, node);
            continue;
          }
        }
        break;
      }
      if (!s.events.empty() && s.events.front().at < window) window = s.events.front().at;
    }
    if (window == kTimeInfinity) break;  // every shard queue drained
    if (window > deadline) {
      for (auto& sp : shards_) sp->now = deadline;
      return deadline;
    }
    // The window is [window, end): no event generated inside it can target
    // another shard earlier than window + lookahead, so every shard may run
    // the whole window without hearing from the others.
    SimTime end = window > kTimeInfinity - lookahead_ ? kTimeInfinity : window + lookahead_;
    if (deadline != kTimeInfinity && end > deadline) end = deadline + 1;

    exec.run_tasks(n, [&](std::size_t i) { run_window(i, end); });

    // Barrier: move the window's cross-shard traffic into the destination
    // queues.  (at, key) is canonical — independent of shard count and of
    // this merge order — so insertion order cannot affect the pop order.
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        auto& box = shards_[src]->outbox[dst];
        if (box.empty()) continue;
        Shard& d = *shards_[dst];
        for (Ingress& msg : box) {
          CallNode* node = pool_acquire(d.call_chunks, d.free_calls);
          try {
            construct_call(node, std::move(msg.fn));
          } catch (...) {
            pool_release(d.free_calls, node);
            throw;
          }
          d.push(Event{msg.at, msg.key, reinterpret_cast<std::uintptr_t>(node), true});
        }
        box.clear();
      }
    }
    for (auto& sp : shards_) {
      if (sp->pending) std::rethrow_exception(std::exchange(sp->pending, nullptr));
    }
  }
  SimTime latest = 0;
  for (const auto& sp : shards_) latest = std::max(latest, sp->now);
  return latest;
}

SimTime Engine::sharded_now() const noexcept {
  if (t_shard_engine == this && t_shard_index >= 0) {
    return shards_[static_cast<std::size_t>(t_shard_index)]->now;
  }
  SimTime latest = 0;
  for (const auto& sp : shards_) latest = std::max(latest, sp->now);
  return latest;
}

std::size_t Engine::shard_events_executed(int shard) const {
  if (shards_.empty()) {
    if (shard != 0) throw std::out_of_range("Engine::shard_events_executed: unsharded engine");
    return events_executed_;
  }
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) {
    throw std::out_of_range("Engine::shard_events_executed: shard index out of range");
  }
  return shards_[static_cast<std::size_t>(shard)]->events_executed;
}

std::size_t Engine::sharded_events_executed() const noexcept {
  std::size_t total = 0;
  for (const auto& sp : shards_) total += sp->events_executed;
  return total;
}

bool Engine::sharded_empty() const noexcept {
  for (const auto& sp : shards_) {
    if (!sp->events.empty()) return false;
  }
  return true;
}

std::size_t Engine::sharded_queue_depth() const noexcept {
  std::size_t total = 0;
  for (const auto& sp : shards_) total += sp->events.size();
  return total;
}

std::size_t Engine::sharded_peak_queue_depth() const noexcept {
  std::size_t total = 0;
  for (const auto& sp : shards_) total += sp->peak_queue_depth;
  return total;
}

}  // namespace dlb::sim
