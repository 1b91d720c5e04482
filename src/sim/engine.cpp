#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace dlb::sim {

namespace {
constexpr std::size_t kCallChunk = 64;  // CallNodes allocated per pool growth

// Active shard context for the calling thread: established by
// Engine::ShardScope at setup time and while a window runs a shard.  Only
// sharded engines read it.
thread_local Engine* t_shard_engine = nullptr;
thread_local int t_shard_index = -1;
}  // namespace

Engine::~Engine() {
  // Destroy still-suspended process frames first, then the callables parked
  // in undelivered events; inner Task frames are destroyed transitively as
  // the owning frames unwind, and the chunk vectors release the node memory
  // themselves.  The scope binds a sharded engine's shard arena, so every
  // frame deallocation lands in the arena that allocated it.
  for (int i = 0; i < shards(); ++i) {
    const ShardScope scope(*this, i);
    Shard& s = *shards_[static_cast<std::size_t>(i)];
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
  }
}

Engine::CallNode* Engine::Shard::acquire() {
  if (free_calls == nullptr) {
    // Pool exhausted: grow by a chunk, never fail an in-flight schedule.
    // dlblint:allow(hotpath-alloc) chunked pool growth is the sanctioned allocation point
    auto chunk = std::make_unique<CallNode[]>(kCallChunk);
    for (std::size_t i = 0; i < kCallChunk; ++i) {
      chunk[i].next_free = free_calls;
      free_calls = &chunk[i];
    }
    call_chunks.push_back(std::move(chunk));
  }
  CallNode* node = free_calls;
  free_calls = node->next_free;
  return node;
}

void Engine::Shard::release(CallNode* node) noexcept {
  ++node->gen;  // stale Timer handles must no longer match
  node->cancelled = false;
  node->next_free = free_calls;
  free_calls = node;
}

int Engine::active_shard() const noexcept {
  return t_shard_engine == this ? t_shard_index : -1;
}

Engine::Shard& Engine::ctx_shard() noexcept {
  // Contract: a sharded engine is only entered under a ShardScope or from
  // inside a window task.  A violation would silently corrupt determinism,
  // so fail hard instead of guessing a shard.
  const int index = active_shard();
  if (index < 0) std::abort();
  return *shards_[static_cast<std::size_t>(index)];
}

SimTime Engine::shard_now() const noexcept {
  // Outside a shard context every shard is at the engine's time (one clock
  // between runs), so the root shard speaks for all of them.
  const int index = active_shard();
  return index < 0 ? root_.now : shards_[static_cast<std::size_t>(index)]->now;
}

void Engine::spawn(Process p) {
  const int index = is_sharded() ? active_shard() : 0;
  if (index < 0) throw std::logic_error("sharded Engine::spawn requires an active ShardScope");
  Shard& s = *shards_[static_cast<std::size_t>(index)];
  const Process::Handle h = p.release();
  auto& promise = h.promise();
  promise.engine = this;
  promise.on_done = &Engine::on_process_done;
  promise.shard = index;
  promise.prev_live = nullptr;
  promise.next_live = s.live_head;
  if (s.live_head != nullptr) s.live_head->prev_live = &promise;
  s.live_head = &promise;
  s.schedule(s.now, reinterpret_cast<std::uintptr_t>(h.address()), false);
}

void Engine::on_process_done(void* engine, Process::Handle h) noexcept {
  auto& promise = h.promise();
  Shard& s = *static_cast<Engine*>(engine)->shards_[static_cast<std::size_t>(promise.shard)];
  if (promise.prev_live != nullptr) {
    promise.prev_live->next_live = promise.next_live;
  } else {
    s.live_head = promise.next_live;
  }
  if (promise.next_live != nullptr) promise.next_live->prev_live = promise.prev_live;
  if (promise.exception && !s.pending) s.pending = promise.exception;
  h.destroy();
}

const Event* Engine::live_front(Shard& s) noexcept {
  // The cancellation check happens when an event reaches the queue front —
  // i.e. when it becomes the shard's (at, seq) minimum — so a flag set at any
  // earlier point, even at the same timestamp, is honoured.  A cancelled
  // callback is discarded without advancing virtual time or counting an
  // executed event.
  while (!s.events.empty()) {
    const Event& ev = s.events.front();
    if (!ev.is_call) return &ev;
    auto* node = reinterpret_cast<CallNode*>(ev.payload);
    if (!node->cancelled) return &ev;
    s.events.pop_front();
    node->drop(*node);
    s.release(node);
  }
  return nullptr;
}

void Engine::drain(Shard& s, SimTime last) {
  for (const Event* front = live_front(s); front != nullptr && front->at <= last;
       front = live_front(s)) {
    const Event ev = *front;
    s.events.pop_front();
    s.now = ev.at;
    ++s.events_executed;
    try {
      if (ev.is_call) {
        auto* node = reinterpret_cast<CallNode*>(ev.payload);
        // The node returns to the pool even if the callable throws; `run`
        // destroys the callable itself.
        struct Return {
          Shard& s;
          CallNode* node;
          ~Return() { s.release(node); }
        } guard{s, node};
        node->run(*node);
      } else {
        std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload)).resume();
      }
    } catch (...) {
      if (!s.pending) s.pending = std::current_exception();
    }
    if (s.pending) return;  // run_until rethrows it
  }
}

void Engine::rethrow_pending() {
  for (Shard* s : shards_) {
    if (s->pending) std::rethrow_exception(std::exchange(s->pending, nullptr));
  }
}

SimTime Engine::run() { return run_until(kTimeInfinity); }

SimTime Engine::run_until(SimTime deadline) {
  if (deadline < now()) return now();
  if (is_sharded()) {
    run_windows(deadline);
  } else {
    drain(root_, deadline);
    rethrow_pending();
  }
  // One clock: a drained engine is at its last event, one stopped by the
  // deadline at the deadline, and every shard takes that time, so whatever
  // is spawned or scheduled next starts there on every shard.
  SimTime end = deadline;
  if (empty()) {
    end = 0;
    for (const Shard* s : shards_) end = std::max(end, s->now);
  }
  for (Shard* s : shards_) s->now = end;
  return end;
}

void Engine::run_windows(SimTime deadline) {
  const std::size_t n = shards_.size();
  ShardExecutor& exec = executor_ != nullptr ? *executor_ : inline_executor_;
  for (;;) {
    // Single-threaded between windows: the window base is the earliest live
    // event over all shards.
    SimTime window = kTimeInfinity;
    for (Shard* s : shards_) {
      const Event* front = live_front(*s);
      if (front != nullptr && front->at < window) window = front->at;
    }
    if (window == kTimeInfinity || window > deadline) return;
    // The window is [window, window + lookahead): no event generated inside
    // it can target another shard earlier than its end, so every shard may
    // run the whole window without hearing from the others.
    const SimTime window_last =
        window > kTimeInfinity - lookahead_ ? kTimeInfinity - 1 : window + lookahead_ - 1;
    const SimTime last = std::min(deadline, window_last);
    exec.run_tasks(n, [this, last](std::size_t i) {
      const ShardScope scope(*this, static_cast<int>(i));
      drain(*shards_[i], last);
    });

    // Barrier: move the window's cross-shard traffic into the destination
    // queues.  (at, key) is canonical — independent of shard count and of
    // this merge order — so insertion order cannot affect the pop order.
    for (Shard* src : shards_) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        Shard& d = *shards_[dst];
        for (Ingress& msg : src->outbox[dst]) {
          d.push(Event{msg.at, msg.key, new_call(d, std::move(msg.fn)), true});
        }
        src->outbox[dst].clear();
      }
    }
    rethrow_pending();
  }
}

void Engine::configure_shards(int shards, SimTime lookahead) {
  if (shards < 1) throw std::invalid_argument("Engine::configure_shards: shards must be >= 1");
  if (shards == 1) return;  // one shard is the plain engine
  if (is_sharded()) throw std::logic_error("Engine::configure_shards: already sharded");
  if (root_.now != 0 || root_.events_executed != 0 || !root_.events.empty() ||
      root_.live_head != nullptr) {
    throw std::logic_error("Engine::configure_shards: engine has already been used");
  }
  if (lookahead <= 0) {
    throw std::invalid_argument("Engine::configure_shards: lookahead must be positive");
  }
  lookahead_ = lookahead;
  for (int i = 1; i < shards; ++i) {
    // dlblint:allow(hotpath-alloc) shards are created once, at configure time
    added_shards_.push_back(std::make_unique<Shard>());
    shards_.push_back(added_shards_.back().get());
  }
  for (Shard* s : shards_) {
    s->outbox.resize(static_cast<std::size_t>(shards));
    s->arena.emplace();
  }
}

Engine::ShardScope::ShardScope(Engine& engine, int shard)
    : prev_engine_(t_shard_engine), prev_shard_(t_shard_index) {
  if (!engine.is_sharded()) return;  // one shard: nothing to route
  if (shard < 0 || shard >= engine.shards()) {
    throw std::out_of_range("Engine::ShardScope: shard index out of range");
  }
  t_shard_engine = &engine;
  t_shard_index = shard;
  bind_.emplace(*engine.shards_[static_cast<std::size_t>(shard)]->arena);
}

Engine::ShardScope::~ShardScope() {
  t_shard_engine = prev_engine_;
  t_shard_index = prev_shard_;
  // bind_ (if engaged) unbinds after this body, restoring the previous
  // arena target symmetrically.
}

std::size_t Engine::shard_events_executed(int shard) const {
  if (shard < 0 || shard >= shards()) {
    throw std::out_of_range("Engine::shard_events_executed: shard index out of range");
  }
  return shards_[static_cast<std::size_t>(shard)]->events_executed;
}

}  // namespace dlb::sim
