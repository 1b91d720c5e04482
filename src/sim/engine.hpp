#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/executor.hpp"
#include "sim/frame_arena.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace dlb::sim {

/// Discrete-event engine over virtual time.  Events are ordered by
/// (time, insertion sequence) so execution is deterministic.  Single-threaded
/// by design — "parallelism" is virtual, which is what lets the cost model be
/// validated against exact run traces.
///
/// Thread model: one Engine must only ever be driven from one thread, but
/// engines hold no global state, so *distinct* engines may run concurrently
/// on distinct threads (the exp::Runner executes one whole Engine per
/// experiment cell).  Virtual time never resets: an engine (and any Cluster
/// built around it) is single-run — `now() != 0 || events_executed() != 0`
/// marks it consumed, which core::Runtime checks at construction.
///
/// Hot-path representation: the queue is a 4-ary min-heap of 32-byte POD
/// event records with a replace-top pop (EventQueue, DESIGN.md §5.2).  It
/// orders records by one packed 128-bit (at, seq) key, so a sift picks the
/// least child with conditional moves instead of branches that random event
/// times would mispredict.  A coroutine resume (the dominant event kind —
/// every sleep, mailbox delivery and spawn) stores the bare handle in the
/// record; an arbitrary `schedule_at` callable lives in a per-shard pooled
/// CallNode with a 64-byte inline buffer (larger captures spill to the heap,
/// once, inside the node).  Nodes are recycled through a free list, so the
/// steady state of a run performs no allocation per event.
///
/// Shards: the run state (event queue, CallNode pool, live-process list,
/// clock and counters) is a Shard.  A plain engine is its one root shard,
/// held inline, and `run_until` drains it directly.  `configure_shards`
/// adds more, each with its own frame arena, and `run_until` becomes a
/// conservatively synchronized window loop.  Each round takes W = min over
/// all shard queue fronts, runs every shard up to (but excluding)
/// W + lookahead via a ShardExecutor, then merges cross-shard traffic at the
/// barrier.  Both paths run the same drain loop.  The lookahead is the
/// minimum virtual latency of any cross-shard interaction (the switched
/// network's cut-through latency), so an event generated inside a window can
/// never target the same window on another shard — execution is
/// deterministic by construction and bit-identical for any shard-to-worker
/// assignment.  Cross-shard events carry a caller-supplied canonical key in
/// place of the insertion sequence (bit 63 set, so they order after every
/// same-time shard-local event); because both the key and the timestamp are
/// derived from per-source deterministic state, the pop order — and therefore
/// the simulation outcome — is also independent of the shard count.  One
/// clock: when `run_until` returns, every shard is at the returned time, so
/// whatever is spawned or scheduled next starts there on every shard.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] SimTime now() const noexcept { return is_sharded() ? shard_now() : root_.now; }

  /// Schedules an arbitrary callback at absolute virtual time `at`
  /// (clamped to `now()` if in the past).
  template <typename Fn>
  void schedule_at(SimTime at, Fn&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<Fn>&>,
                  "schedule_at callable must be invocable as void()");
    Shard& s = home();
    s.schedule(at, new_call(s, std::forward<Fn>(fn)), true);
  }

 private:
  struct CallNode;
  struct Shard;

  /// Takes a CallNode from `s`'s pool, moves `fn` into it, and returns the
  /// node as an event payload.
  template <typename Fn>
  [[nodiscard]] static std::uintptr_t new_call(Shard& s, Fn&& fn) {
    using Decayed = std::decay_t<Fn>;
    CallNode* node = s.acquire();
    try {
      if constexpr (sizeof(Decayed) <= CallNode::kInlineBytes &&
                    alignof(Decayed) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(node->storage)) Decayed(std::forward<Fn>(fn));
        node->run = [](CallNode& n) {
          auto* f = std::launder(reinterpret_cast<Decayed*>(n.storage));
          struct Destroy {
            Decayed* f;
            ~Destroy() { f->~Decayed(); }
          } d{f};
          (*f)();
        };
        node->drop = [](CallNode& n) noexcept {
          std::launder(reinterpret_cast<Decayed*>(n.storage))->~Decayed();
        };
      } else {
        // Rare spill: captures wider than the inline buffer get one heap box.
        ::new (static_cast<void*>(node->storage))
            // dlblint:allow(hotpath-alloc) sanctioned spill path for oversized captures
            Decayed*(new Decayed(std::forward<Fn>(fn)));
        node->run = [](CallNode& n) {
          auto* f = *std::launder(reinterpret_cast<Decayed**>(n.storage));
          struct Destroy {
            Decayed* f;
            // dlblint:allow(hotpath-alloc) frees the spill box created above
            ~Destroy() { delete f; }
          } d{f};
          (*f)();
        };
        node->drop = [](CallNode& n) noexcept {
          // dlblint:allow(hotpath-alloc) frees the spill box created above
          delete *std::launder(reinterpret_cast<Decayed**>(n.storage));
        };
      }
    } catch (...) {
      s.release(node);
      throw;
    }
    return reinterpret_cast<std::uintptr_t>(node);
  }

 public:
  /// Handle to a `schedule_cancellable_at` callback.  Generation-checked:
  /// once the callback fires (or is cancelled) the handle goes stale and
  /// further `cancel` calls are safe no-ops, even after the underlying node
  /// has been recycled for another callback.
  class [[nodiscard]] Timer {
   public:
    Timer() = default;

   private:
    friend class Engine;
    CallNode* node_ = nullptr;
    std::uint64_t gen_ = 0;
  };

  /// Like `schedule_at`, but returns a handle that can cancel the callback
  /// before it fires.  A cancelled callback is destroyed unrun and — unlike
  /// scheduling a no-op — virtual time never advances to its deadline: the
  /// queued record is discarded when it reaches the heap root, so a run whose
  /// real work ends earlier is not stretched by dead timers.
  template <typename Fn>
  [[nodiscard]] Timer schedule_cancellable_at(SimTime at, Fn&& fn) {
    Shard& s = home();
    const std::uintptr_t payload = new_call(s, std::forward<Fn>(fn));
    s.schedule(at, payload, true);
    Timer timer;
    timer.node_ = reinterpret_cast<CallNode*>(payload);
    timer.gen_ = timer.node_->gen;
    return timer;
  }

  /// Cancels a pending cancellable callback; no-op on a stale handle.
  /// In a sharded engine a timer may only be cancelled from the shard that
  /// scheduled it (all protocol actors cancel their own timers, so this
  /// holds by construction).
  void cancel(Timer& timer) noexcept {
    CallNode* node = timer.node_;
    timer.node_ = nullptr;
    if (node != nullptr && node->gen == timer.gen_) node->cancelled = true;
  }

  /// Schedules a coroutine resume at absolute virtual time `at`.  This is
  /// the fast path: the record holds the bare handle, no callable is built.
  /// Never throws mid-run: the queue grows geometrically and allocation
  /// failure terminates rather than corrupting the (time, seq) contract.
  void schedule_resume(SimTime at, std::coroutine_handle<> h) noexcept {
    home().schedule(at, reinterpret_cast<std::uintptr_t>(h.address()), false);
  }

  /// Starts a root process as an event at the current time.  The engine owns
  /// the frame; exceptions escaping the process are re-thrown from run().
  /// On a sharded engine the caller must hold a ShardScope (or be inside a
  /// shard window), which pins the process to that shard.
  void spawn(Process p);

  /// Runs until the event queue drains.  Returns the final virtual time.
  SimTime run();

  /// Runs until the queue drains or virtual time would exceed `deadline`;
  /// events after the deadline remain queued.  Virtual time never moves
  /// backwards: a deadline before `now()` runs nothing and returns `now()`.
  SimTime run_until(SimTime deadline);

  // ── Sharding ──────────────────────────────────────────────────────────

  /// Splits the engine into `shards` independently queued partitions
  /// synchronized on `lookahead` (the minimum virtual latency of any
  /// cross-shard event; must be positive).  Must be called before anything
  /// is spawned or scheduled.  `shards == 1` is a no-op: the engine stays
  /// one shard.
  void configure_shards(int shards, SimTime lookahead);

  /// Number of shards (1 unless configure_shards split the engine).
  [[nodiscard]] int shards() const noexcept { return static_cast<int>(shards_.size()); }
  [[nodiscard]] bool is_sharded() const noexcept { return shards_.size() > 1; }
  /// The conservative synchronization lookahead (0 when unsharded).
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  /// Installs the executor that runs shard window tasks; nullptr restores
  /// the built-in inline (serial) executor.  The executor choice cannot
  /// change the simulated outcome — only wall-clock time.
  void set_executor(ShardExecutor* executor) noexcept { executor_ = executor; }

  /// RAII shard context: while alive, spawns and schedules from this thread
  /// are routed to `shard` (and coroutine frames are allocated in that
  /// shard's arena).  No-op on an unsharded engine.  Used at setup time to
  /// pin each root process to its rack's shard; the window loop establishes
  /// the same context while a shard executes.
  class ShardScope {
   public:
    ShardScope(Engine& engine, int shard);
    ~ShardScope();
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    Engine* prev_engine_;
    int prev_shard_;
    std::optional<FrameArena::Bind> bind_;
  };

  /// Schedules a cross-shard (or cross-rack) event with a caller-supplied
  /// canonical sequence key instead of the per-shard insertion counter.
  /// `key` must have bit 63 set, be unique per event, and — like `at` — be
  /// derived only from per-source deterministic state, so the resulting pop
  /// order is independent of the shard count.  `at` must be at least
  /// `now() + lookahead()`; this is what makes the conservative window sound,
  /// so the engine throws std::logic_error (surfacing from run()) when it
  /// does not hold.  An event for
  /// the caller's own shard joins its queue at once (bit 63 orders it after
  /// every same-time normal event); one for another shard waits in the
  /// source's outbox for the barrier.  This is the *only* legal channel for
  /// cross-shard interaction — dlblint's shard-isolation rule enforces that
  /// nothing outside src/sim + src/net touches it.
  template <typename Fn>
  void schedule_ingress(int dst_shard, SimTime at, std::uint64_t key, Fn&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<Fn>&>,
                  "schedule_ingress callable must be invocable as void()");
    Shard& src = home();
    if (at < src.now + lookahead_) {
      throw std::logic_error("Engine::schedule_ingress: at < now() + lookahead()");
    }
    if (&src == shards_[static_cast<std::size_t>(dst_shard)]) {
      src.push(Event{at, key, new_call(src, std::forward<Fn>(fn)), true});
      return;
    }
    src.outbox[static_cast<std::size_t>(dst_shard)].push_back(
        Ingress{at, key, std::function<void()>(std::forward<Fn>(fn))});
  }

  /// Events executed by one shard (shard 0 = the whole engine when
  /// unsharded).  The max over shards bounds the critical path of a window
  /// schedule, which the scale bench uses as its deterministic speedup proxy.
  [[nodiscard]] std::size_t shard_events_executed(int shard) const;

  /// Awaitable for sleep_for/sleep_until: suspends the awaiting coroutine
  /// until `wake_at` (no-op if already past).
  struct [[nodiscard]] SleepAwaiter {
    Engine& engine;
    SimTime wake_at;
    bool await_ready() const noexcept { return wake_at <= engine.now(); }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      engine.schedule_resume(wake_at, h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable: suspends the awaiting coroutine for `duration` virtual ns.
  [[nodiscard]] SleepAwaiter sleep_for(SimTime duration) noexcept {
    const SimTime base = now();
    return SleepAwaiter{*this, duration <= 0 ? base : base + duration};
  }

  /// Awaitable: suspends until absolute virtual time `at` (no-op if past).
  [[nodiscard]] SleepAwaiter sleep_until(SimTime at) noexcept {
    return SleepAwaiter{*this, at};
  }

  [[nodiscard]] std::size_t events_executed() const noexcept {
    std::size_t total = 0;
    for (const Shard* s : shards_) total += s->events_executed;
    return total;
  }
  [[nodiscard]] bool empty() const noexcept { return queue_depth() == 0; }

  /// Current number of queued events, summed over shards (observability:
  /// sampled as the "heap depth" counter track of a Chrome trace).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    std::size_t total = 0;
    for (const Shard* s : shards_) total += s->events.size();
    return total;
  }
  /// High-water mark of the event queue over the engine's lifetime, summed
  /// over shards.
  [[nodiscard]] std::size_t peak_queue_depth() const noexcept {
    std::size_t total = 0;
    for (const Shard* s : shards_) total += s->peak_queue_depth;
    return total;
  }

 private:
  /// Pooled holder for a type-erased `schedule_at` callable.  Chunk-allocated
  /// by a shard and recycled through its free list; `run`/`drop` own the
  /// lifetime of the stored callable.
  struct CallNode {
    static constexpr std::size_t kInlineBytes = 64;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*run)(CallNode&);            // invoke, then destroy the callable
    void (*drop)(CallNode&) noexcept;  // destroy without invoking (teardown)
    CallNode* next_free;
    std::uint64_t gen;  // bumped on recycle; validates Timer handles
    bool cancelled;     // set by Engine::cancel; record skipped at heap root
  };

  /// A cross-shard event parked in its source shard's outbox until the
  /// window barrier.
  struct Ingress {
    SimTime at;
    std::uint64_t key;
    std::function<void()> fn;
  };

  /// One partition of the run state.  Exactly one thread executes a shard
  /// per window (the executor barrier hands shards over with full
  /// synchronization), so nothing here needs locking.
  struct Shard {
    EventQueue events;  // strict (at, seq) pop order
    std::vector<std::unique_ptr<CallNode[]>> call_chunks;
    CallNode* free_calls = nullptr;
    Process::promise_type* live_head = nullptr;  // intrusive list of root frames
    std::exception_ptr pending;
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    std::size_t events_executed = 0;
    std::size_t peak_queue_depth = 0;
    std::vector<std::vector<Ingress>> outbox;  // sharded: indexed by destination
    std::optional<FrameArena::Handle> arena;   // sharded: this shard's frames

    // Inline: sits directly in every awaiter's suspend path.
    void push(Event ev) noexcept {
      events.push(ev);
      if (events.size() > peak_queue_depth) peak_queue_depth = events.size();
    }
    void schedule(SimTime at, std::uintptr_t payload, bool is_call) noexcept {
      push(Event{at < now ? now : at, next_seq++, payload, is_call});
    }
    [[nodiscard]] CallNode* acquire();
    void release(CallNode* node) noexcept;
  };

  /// The shard this thread's spawns and schedules go to: the root shard, or
  /// on a sharded engine the shard of the active ShardScope or window.
  [[nodiscard]] Shard& home() noexcept { return is_sharded() ? ctx_shard() : root_; }
  [[nodiscard]] Shard& ctx_shard() noexcept;
  [[nodiscard]] SimTime shard_now() const noexcept;
  /// This thread's shard of this engine, or -1 outside a ShardScope/window.
  [[nodiscard]] int active_shard() const noexcept;

  static void on_process_done(void* engine, Process::Handle h) noexcept;
  [[nodiscard]] static const Event* live_front(Shard& s) noexcept;
  static void drain(Shard& s, SimTime last);
  void run_windows(SimTime deadline);
  void rethrow_pending();

  Shard root_;  // shard 0: the whole engine unless configure_shards split it
  std::vector<std::unique_ptr<Shard>> added_shards_;  // shards 1..S-1
  std::vector<Shard*> shards_{&root_};                // every shard, by index
  SimTime lookahead_ = 0;
  ShardExecutor* executor_ = nullptr;  // null = inline_executor_
  InlineExecutor inline_executor_;
};

}  // namespace dlb::sim
