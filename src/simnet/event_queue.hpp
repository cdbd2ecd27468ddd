// Discrete-event engine: a time-ordered queue of callbacks.
//
// Determinism contract: events at equal timestamps fire in scheduling order
// (a monotonic sequence number breaks ties), so runs are reproducible
// regardless of heap internals.
//
// Each domain's pending events sit in an EventHeap: a 4-ary min-heap of
// 16-byte (at, src:seq) keys, four siblings to a cache line, over a slab
// of {callback, category} slots with a free list. Sifting moves keys and
// slab indices only; a callback is written into its slot once at schedule
// time and moved out once at dispatch.
// Callbacks are util::Task (move-only, inline captures up to 48 bytes), so
// a typical schedule allocates nothing.
//
// Sharded mode (configure_shards): the queue splits into per-domain heaps
// advanced in parallel between conservative time-window barriers. Each
// window executes every event with `at` strictly below a bound derived
// from the global minimum pending time plus the lookahead; cross-domain
// events travel through per-domain inboxes ingested at the barrier. The
// total order inside a domain is (at, sending domain, sender sequence) — a
// pure function of simulation content, never of thread interleaving — so
// the executed event sequence (and every digest downstream of it) is
// identical at any shard count. Events arriving below the committed
// barrier bound (a lookahead violation: only possible when a cross-domain
// delay undercuts the configured lookahead) are counted and clamped.
//
// A window costs what its active domains cost. An indexed heap holds one
// (next event time, domain) entry per non-empty domain and yields both the
// window bound and the domains that run in it; each shard lists the
// inboxes it turned non-empty and the domains that queued barrier commits,
// so the barrier visits only those. Every domain is visited once, when a
// run()/run_until() call opens, to fold in what was scheduled at setup or
// between calls. A window whose active domains all sit on one shard runs
// inline on the driving thread; only windows spanning two or more shards
// are handed to the executors.
//
// Observability: the executed counter and pending-depth gauge are always
// live (they are the queue's own state); attach_metrics() additionally
// enrols them in an obs::Registry and can enable a wall-clock dispatch
// histogram (how long each callback runs) — wall readings are
// observational only and never influence the virtual clock. Sharded runs
// add window/violation counters and a barrier-stall histogram over the
// windows handed to the executors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/shard.hpp"
#include "simnet/time.hpp"
#include "util/task.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::simnet {

class EventQueue {
 public:
  using Callback = util::Task<void()>;
  /// Dispatch category for wall-time attribution (register_category).
  /// Category 0 is the pre-registered "other" bucket.
  using CategoryId = std::uint16_t;

  /// Domains a queue can split into: the event key packs the sending
  /// domain into 16 bits.
  static constexpr DomainId kMaxDomains = DomainId{1} << 16;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Virtual time of the calling context: the executing domain's clock on
  /// a worker mid-window, the global clock otherwise.
  SimTime now() const;

  /// Split into `domain_count` deterministic domains run across
  /// `plan.shards` parallel heaps. Must be called before any event runs;
  /// `plan.shards` >= 1, `plan.lookahead` >= 1 and
  /// `domain_count` <= kMaxDomains are required.
  void configure_shards(const ShardPlan& plan, DomainId domain_count);
  bool sharded() const { return shards_ > 0; }
  std::uint32_t shard_count() const { return shards_ ? shards_ : 1; }
  DomainId domain_count() const {
    return static_cast<DomainId>(domains_.size());
  }
  /// Domain of the calling context (0 outside event execution).
  DomainId current_domain() const;

  /// Schedule `fn` at absolute time `at` (clamped to now if in the past)
  /// on the calling context's domain. Every schedule call takes its
  /// callback as an rvalue: a lambda argument converts in place, and the
  /// Task is relocated once, into its slab slot.
  void schedule_at(SimTime at, Callback&& fn);
  /// Schedule `fn` after `delay`.
  void schedule_in(SimDuration delay, Callback&& fn);
  /// Category-attributed variants: the event's execution is counted (and,
  /// when dispatch timing is on, wall-timed) under `category`.
  void schedule_at(SimTime at, CategoryId category, Callback&& fn);
  void schedule_in(SimDuration delay, CategoryId category, Callback&& fn);
  /// Schedule on an explicit domain. Cross-domain events must respect the
  /// configured lookahead (at >= sender now + lookahead) or they surface
  /// as counted lookahead violations at the next barrier.
  void schedule_on(DomainId domain, SimTime at, CategoryId category,
                   Callback&& fn);

  /// Run `fn` at the next window barrier, when every domain is quiescent
  /// (deterministic commit point for cross-domain state). Commits run on
  /// the driving thread in (submitting domain, submission order). In
  /// legacy mode this runs `fn` immediately.
  void run_at_barrier(Callback fn);

  /// Run events until the queue drains or `until` is passed; the clock ends
  /// at the later of its current value and the last executed event (or
  /// `until` if given and reached). Returns the number of events executed.
  std::uint64_t run();
  std::uint64_t run_until(SimTime until);

  /// Execute at most one event; false when the queue is empty.
  /// Legacy mode only.
  bool step();

  std::size_t pending() const;
  bool empty() const { return pending() == 0; }

  /// Total events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_ctr_.value(); }

  /// Conservative windows run so far (0 in legacy mode).
  std::uint64_t shard_windows() const { return windows_ctr_.value(); }
  /// Cross-domain events that arrived below a committed barrier bound.
  /// Always 0 when every cross-domain delay honours the lookahead.
  std::uint64_t shard_violations() const { return violations_ctr_.value(); }
  SimDuration lookahead() const { return lookahead_; }

  /// Enrol the queue's instruments (events_executed, events_pending and —
  /// when `time_dispatch` — the dispatch_wall_ns histogram) in `registry`.
  /// The registry must outlive this queue.
  void attach_metrics(obs::Registry& registry, obs::Labels labels = {},
                      bool time_dispatch = true);

  /// Time only every `every`-th event (rounded down to a power of two;
  /// default 1 = every event). Sampling keeps the two steady_clock reads
  /// off most dispatches — at study scale the full-timing cost dominates
  /// the whole observability overhead.
  void set_dispatch_sampling(std::uint32_t every);
  const obs::Histogram& dispatch_wall_ns() const { return dispatch_wall_; }
  /// Wall nanoseconds each busy shard of a handed-off window spent waiting
  /// at the barrier for the slowest one. Windows run inline on the driver
  /// (one busy shard, or a single executor) wait for nobody and record
  /// nothing; empty in legacy mode / timing off.
  const obs::Histogram& barrier_stall_ns() const { return barrier_stall_; }

  /// Register (or look up — idempotent by name) a dispatch category.
  /// Per-category executed counters are always live; per-category wall
  /// histograms fill on the same sampled timed dispatches as the aggregate
  /// simnet_dispatch_wall_ns. Register at setup time, schedule hot.
  CategoryId register_category(std::string_view name);
  const std::string& category_name(CategoryId id) const {
    return categories_[id].name;
  }
  std::size_t category_count() const { return categories_.size(); }
  /// Executed-event count attributed to `id` (deterministic).
  std::uint64_t category_executed(CategoryId id) const {
    return categories_[id].executed->value();
  }
  /// Wall histogram attributed to `id` (empty unless dispatch timing on).
  const obs::Histogram& category_wall_ns(CategoryId id) const {
    return *categories_[id].wall;
  }

  /// One timed dispatch that exceeded the flight-recorder threshold, kept
  /// in the top-K table.
  struct SlowDispatch {
    SimTime at = 0;
    std::int64_t wall_ns = 0;
    CategoryId category = 0;
  };
  /// Top-K slowest timed dispatches so far, slowest first.
  std::vector<SlowDispatch> slowest() const;

  /// Report timed dispatches over `threshold_ns` wall time to `recorder`
  /// (FlightKind::kSlowDispatch, detail = category name, a = the measured
  /// wall ns, b = the category id) and trigger a flight dump. nullptr
  /// detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder,
                           std::int64_t threshold_ns = 1'000'000);

 private:
  /// A cross-domain event waiting in its target's inbox.
  struct Entry {
    SimTime at;
    DomainId src;       // sending domain: second key of the total order
    std::uint64_t seq;  // sender-local sequence: third key
    CategoryId cat;
    Callback fn;
  };

  /// One domain's pending events in (at, src, seq) order: a 4-ary min-heap
  /// of 16-byte keys over a slab of 64-byte {callback, category} slots,
  /// recycled through a free list threaded through the vacant slots. The
  /// keys sit four siblings to a 64-byte-aligned group, so choosing a
  /// child reads one cache line; each key's slab index rides in a parallel
  /// array. The keys are unique, so the pop order is the total order
  /// whatever the heap's shape.
  class EventHeap {
   public:
    struct Popped {
      SimTime at;
      CategoryId cat;
      Callback fn;
    };
    bool empty() const { return slots_.empty(); }
    std::size_t size() const { return slots_.size(); }
    /// Time of the earliest event; the heap must not be empty.
    SimTime top_at() const { return groups_[0].keys[3].at; }
    /// `src` must be below kMaxDomains and `seq` below 2^48.
    void push(SimTime at, DomainId src, std::uint64_t seq, CategoryId cat,
              Callback&& fn);
    /// Remove the earliest event and move its callback out.
    Popped pop();

   private:
    /// (at, src, seq) in 16 bytes: the tie packs the sending domain above
    /// a 48-bit sender sequence, so one compare orders both.
    struct Key {
      SimTime at;
      std::uint64_t tie;
    };
    /// Node j lives at position j + 3: the root ends group 0, and the four
    /// children of node j fill group j + 1.
    struct alignas(64) Group {
      Key keys[4];
    };
    struct Slot {
      Callback fn;
      CategoryId cat = 0;
      std::uint32_t next_free = kNoSlot;  // while vacant: the next vacancy
    };
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    static bool before(const Key& a, const Key& b) {
      return a.at != b.at ? a.at < b.at : a.tie < b.tie;
    }
    Key& key(std::size_t j) { return groups_[(j + 3) >> 2].keys[(j + 3) & 3]; }

    std::vector<Group> groups_;
    std::vector<std::uint32_t> slots_;  // slots_[j]: node j's slab index
    std::vector<Slot> slab_;
    std::uint32_t free_head_ = kNoSlot;  // most recently vacated slot
  };

  // Counter/Histogram hold atomics (non-movable), so categories own them
  // through unique_ptr; the vector is append-only and ids stay stable.
  // Capacity is reserved up front so a (single-writer, domain-0) runtime
  // register_category never reallocates under concurrent element reads.
  struct Category {
    std::string name;
    std::unique_ptr<obs::Counter> executed;
    std::unique_ptr<obs::Histogram> wall;
    std::uint32_t flight_note = 0;  // category name, interned on attach
  };

  /// One deterministic execution domain: its own heap, clock, sender
  /// sequence, and inbox for cross-domain arrivals. Deque-held (mutex is
  /// not movable).
  struct Domain {
    EventHeap heap;
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    mutable std::mutex inbox_mu;
    std::vector<Entry> inbox;
    std::vector<Callback> commits;
  };

  /// Indexed binary min-heap of (next event time, domain) with at most one
  /// entry per domain, so it is bounded by the domain count however many
  /// events are pushed. Ties order by domain.
  class NextEvents {
   public:
    struct Slot {
      SimTime at;
      DomainId domain;
    };
    void reset(std::size_t domains);
    bool empty() const { return heap_.empty(); }
    SimTime earliest() const { return heap_.front().at; }
    const std::vector<Slot>& slots() const { return heap_; }
    /// Remove and return the domain with the earliest entry.
    DomainId pop();
    /// Insert `domain` at `at`, or move its entry there.
    void set(DomainId domain, SimTime at);
    void erase(DomainId domain);

   private:
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    static bool before(const Slot& a, const Slot& b) {
      return a.at != b.at ? a.at < b.at : a.domain < b.domain;
    }
    void place(std::uint32_t i, Slot slot);
    void sift(std::uint32_t i);

    std::vector<Slot> heap_;
    std::vector<std::uint32_t> pos_;  // domain -> index in heap_, or kAbsent
  };

  /// Per-shard window bookkeeping, plus one more entry for the driving
  /// thread. The driver fills `active` between windows; mid-window only
  /// the executor running a shard writes its entry, so none needs a lock.
  /// Cache-line aligned so executors never share a line.
  struct alignas(64) ShardLists {
    std::vector<DomainId> active;         // this window's domains, ascending
    std::vector<DomainId> inbox_targets;  // inboxes turned non-empty
    std::vector<DomainId> commit_domains; // domains that queued commits
    std::int64_t wall_ns = 0;             // handed-off windows only
  };

  void enroll_category(Category& cat);
  void note_slow_dispatch(SimTime at, std::int64_t wall, CategoryId cat);
  void dispatch(Domain& dom, CategoryId cat, Callback& fn);

  void refresh(DomainId d);
  void ingest(Domain& dom, SimTime committed_bound);
  void open_windows();
  void ingest_inboxes(SimTime committed_bound);
  void run_window(SimTime bound);
  void exec_claimed_shards(SimTime bound);
  void exec_shard(std::uint32_t shard, SimTime bound);
  void exec_domain(DomainId d, SimTime bound);
  void run_commits();
  std::uint64_t run_windows(bool bounded, SimTime until);
  void worker_loop();

  // domains_[0] is the sole queue in legacy mode.
  std::deque<Domain> domains_;
  SimTime now_ = 0;

  // -- sharded-mode state --
  std::uint32_t shards_ = 0;   // 0 = legacy
  std::uint32_t workers_n_ = 0;
  SimDuration lookahead_ = 0;
  SimTime committed_bound_ = 0;
  // The last run_until's horizon, raised into every domain's clock when
  // the next call opens (only domain 0's is read in between).
  SimTime clock_floor_ = std::numeric_limits<SimTime>::min();
  SimTime reached_ = 0;  // latest domain clock of the current call
  NextEvents next_;
  std::vector<ShardLists> lists_;       // shards_ + 1; [shards_] = driver
  std::vector<std::uint32_t> busy_shards_;  // this window's, ascending
  std::vector<DomainId> order_;         // scratch: merged domain lists
  std::vector<Entry> batch_;            // scratch: one inbox being ingested
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  SimTime window_bound_ = 0;
  std::atomic<std::uint32_t> next_shard_{0};  // index into busy_shards_
  std::uint32_t busy_executors_ = 0;  // guarded by pool_mu_

  obs::Counter executed_ctr_;
  obs::Gauge pending_gauge_;
  obs::Counter windows_ctr_;
  obs::Counter violations_ctr_;
  obs::Histogram dispatch_wall_;
  obs::Histogram barrier_stall_;
  bool time_dispatch_ = false;
  std::uint64_t dispatch_mask_ = 0;  // time when (executed & mask) == 0
  obs::Registry* registry_ = nullptr;
  obs::Labels labels_;
  std::vector<Category> categories_;
  std::mutex category_mu_;
  // Top-K slowest timed dispatches, kept as a min-heap on wall_ns so each
  // candidate costs one comparison against the current K-th place.
  static constexpr std::size_t kSlowTableSize = 16;
  std::vector<SlowDispatch> slow_;
  mutable std::mutex slow_mu_;
  obs::FlightRecorder* flight_ = nullptr;
  std::int64_t flight_threshold_ns_ = 1'000'000;
};

/// A re-schedulable one-shot timer slot: one logical deadline, at most one
/// *useful* heap entry, re-armable in both directions.
///
/// schedule_at() alone cannot model a deadline that moves: every re-arm
/// pushes a fresh entry and the superseded ones sit in the heap until their
/// (dead) time comes. A Timer keeps a single shared deadline instead:
/// re-arming earlier pushes one new entry and invalidates the old by
/// generation; re-arming *later* pushes nothing — the existing entry fires,
/// notices the deadline moved, and re-schedules itself. This is what lets
/// the scan pump (scan::SharedBudget) coalesce every engine's wake-ups into
/// one slot.
///
/// The callback only runs when the armed deadline is actually reached;
/// cancel() and destruction make any in-flight heap entries inert. The
/// EventQueue must outlive the Timer's pending entries (it owns them).
class Timer {
 public:
  /// The callback is copied on every firing (it may destroy the Timer),
  /// so it is a std::function rather than a one-shot Task.
  using Fn = std::function<void()>;

  Timer(EventQueue& queue, Fn fn, EventQueue::CategoryId category = 0);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Move the deadline to `at` (clamped to now) and arm. Idempotent for an
  /// unchanged deadline.
  void arm(SimTime at);
  void cancel();

  bool armed() const { return state_->armed; }
  /// Deadline of the armed timer (meaningless when !armed()).
  SimTime deadline() const { return state_->target; }
  /// Heap entries pushed over the timer's lifetime — the cost a pump pays
  /// for its wake-ups; tests assert coalescing keeps it near the number of
  /// distinct deadlines actually reached.
  std::uint64_t entries_scheduled() const { return state_->entries; }

 private:
  struct State {
    EventQueue* queue;
    Fn fn;
    EventQueue::CategoryId category = 0;
    bool armed = false;
    SimTime target = 0;
    bool entry_live = false;  // a non-superseded heap entry exists
    SimTime entry_at = 0;
    std::uint64_t gen = 0;
    std::uint64_t entries = 0;
  };

  static void push_entry(const std::shared_ptr<State>& s);
  static void fire(const std::shared_ptr<State>& s, std::uint64_t gen);

  std::shared_ptr<State> state_;
};

}  // namespace tts::simnet
