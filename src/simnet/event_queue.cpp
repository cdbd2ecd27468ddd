#include "simnet/event_queue.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace tts::simnet {

namespace {

/// Which queue+domain the calling thread is executing for. Set around
/// every domain's window slice; outside event execution it points nowhere
/// and every call resolves to domain 0.
struct TlsCtx {
  const void* queue = nullptr;
  DomainId domain = 0;
};
thread_local TlsCtx tls_ctx;

constexpr std::size_t kMaxCategories = 256;

/// Concatenate every shard's `member` list into `out`, ascending and
/// without duplicates, and empty the lists.
template <typename Lists, typename Member>
void merge_lists(Lists& lists, Member member, std::vector<DomainId>& out) {
  out.clear();
  for (auto& l : lists) {
    std::vector<DomainId>& list = l.*member;
    out.insert(out.end(), list.begin(), list.end());
    list.clear();
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::string format_duration(SimDuration d) {
  bool neg = d < 0;
  if (neg) d = -d;
  std::int64_t total_sec = d / 1000000;
  std::int64_t days = total_sec / 86400;
  int h = static_cast<int>(total_sec % 86400 / 3600);
  int m = static_cast<int>(total_sec % 3600 / 60);
  int s = static_cast<int>(total_sec % 60);
  char buf[64];
  if (days > 0)
    std::snprintf(buf, sizeof buf, "%s%lldd %02d:%02d:%02d", neg ? "-" : "",
                  static_cast<long long>(days), h, m, s);
  else
    std::snprintf(buf, sizeof buf, "%s%02d:%02d:%02d", neg ? "-" : "", h, m,
                  s);
  return buf;
}

EventQueue::EventQueue() {
  domains_.emplace_back();
  categories_.reserve(kMaxCategories);
  register_category("other");
}

EventQueue::~EventQueue() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  if (registry_) registry_->drop_owner(this);
}

void EventQueue::configure_shards(const ShardPlan& plan,
                                  DomainId domain_count) {
  if (sharded())
    throw std::logic_error("EventQueue: already sharded");
  if (executed() > 0 || pending() > 0)
    throw std::logic_error("EventQueue: configure_shards before any events");
  if (plan.shards == 0)
    throw std::invalid_argument("EventQueue: shards must be >= 1");
  if (plan.lookahead <= 0)
    throw std::invalid_argument("EventQueue: lookahead must be positive");
  if (domain_count > kMaxDomains)
    throw std::invalid_argument("EventQueue: more than kMaxDomains domains");
  shards_ = plan.shards;
  lookahead_ = plan.lookahead;
  if (domain_count < 1) domain_count = 1;
  while (domains_.size() < domain_count) domains_.emplace_back();
  lists_.assign(shards_ + 1, ShardLists{});
  std::uint32_t hw = std::thread::hardware_concurrency();
  std::uint32_t w = plan.workers
                        ? plan.workers
                        : std::min<std::uint32_t>(shards_, hw ? hw : 1);
  w = std::min(w, shards_);
  workers_n_ = w;
  // The driving thread is executor 0; spawn the rest. w <= 1 keeps the
  // whole run on the driver — byte-identical to any parallel schedule.
  for (std::uint32_t i = 1; i < w; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

DomainId EventQueue::current_domain() const {
  return tls_ctx.queue == this ? tls_ctx.domain : 0;
}

SimTime EventQueue::now() const {
  if (tls_ctx.queue == this) return domains_[tls_ctx.domain].now;
  if (!sharded()) return domains_[0].now;
  return now_;
}

void EventQueue::attach_metrics(obs::Registry& registry, obs::Labels labels,
                                bool time_dispatch) {
  registry_ = &registry;
  time_dispatch_ = time_dispatch;
  labels_ = labels;
  registry.enroll(executed_ctr_, "simnet_events_executed", labels, this);
  registry.enroll(pending_gauge_, "simnet_events_pending", labels, this);
  registry.enroll(windows_ctr_, "simnet_shard_windows", labels, this);
  registry.enroll(violations_ctr_, "simnet_shard_violations", labels, this);
  if (time_dispatch) {
    registry.enroll(dispatch_wall_, "simnet_dispatch_wall_ns", labels, this);
    registry.enroll(barrier_stall_, "simnet_barrier_stall_ns",
                    std::move(labels), this);
  }
  for (Category& cat : categories_) enroll_category(cat);
}

EventQueue::CategoryId EventQueue::register_category(std::string_view name) {
  std::lock_guard<std::mutex> lk(category_mu_);
  for (CategoryId id = 0; id < categories_.size(); ++id)
    if (categories_[id].name == name) return id;
  if (categories_.size() >= kMaxCategories)
    throw std::logic_error("EventQueue: category table full");
  Category cat;
  cat.name = name;
  cat.executed = std::make_unique<obs::Counter>();
  cat.wall = std::make_unique<obs::Histogram>();
  if (registry_) enroll_category(cat);
  if (flight_) cat.flight_note = flight_->tracer().intern(cat.name);
  categories_.push_back(std::move(cat));
  return static_cast<CategoryId>(categories_.size() - 1);
}

void EventQueue::enroll_category(Category& cat) {
  // The per-category series carry a category= label; the unlabelled
  // aggregate instruments above stay as-is, so nothing double-enrols.
  obs::Labels labels = labels_;
  labels.emplace_back("category", cat.name);
  registry_->enroll(*cat.executed, "simnet_events_executed", labels, this);
  if (time_dispatch_)
    registry_->enroll(*cat.wall, "simnet_dispatch_wall_ns",
                      std::move(labels), this);
}

void EventQueue::set_flight_recorder(obs::FlightRecorder* recorder,
                                     std::int64_t threshold_ns) {
  flight_ = recorder;
  flight_threshold_ns_ = threshold_ns;
  if (!flight_) return;
  for (Category& cat : categories_)
    cat.flight_note = flight_->tracer().intern(cat.name);
}

std::vector<EventQueue::SlowDispatch> EventQueue::slowest() const {
  std::vector<SlowDispatch> out;
  {
    std::lock_guard<std::mutex> lk(slow_mu_);
    out = slow_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowDispatch& a, const SlowDispatch& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              return a.at < b.at;
            });
  return out;
}

void EventQueue::note_slow_dispatch(SimTime at, std::int64_t wall,
                                    CategoryId cat) {
  // Keep the top-K table (min-heap on wall_ns: front() is the K-th place
  // to beat), independently of the flight-recorder threshold.
  auto lighter = [](const SlowDispatch& a, const SlowDispatch& b) {
    return a.wall_ns > b.wall_ns;
  };
  {
    std::lock_guard<std::mutex> lk(slow_mu_);
    if (slow_.size() < kSlowTableSize) {
      slow_.push_back(SlowDispatch{at, wall, cat});
      std::push_heap(slow_.begin(), slow_.end(), lighter);
    } else if (wall > slow_.front().wall_ns) {
      std::pop_heap(slow_.begin(), slow_.end(), lighter);
      slow_.back() = SlowDispatch{at, wall, cat};
      std::push_heap(slow_.begin(), slow_.end(), lighter);
    }
  }
  if (flight_ && wall >= flight_threshold_ns_) {
    flight_->record(obs::FlightKind::kSlowDispatch,
                    categories_[cat].flight_note,
                    /*trace=*/0, /*a=*/wall,
                    /*b=*/static_cast<std::int64_t>(cat));
    flight_->trigger("slow-dispatch");
  }
}

void EventQueue::schedule_at(SimTime at, Callback&& fn) {
  schedule_at(at, /*category=*/0, std::move(fn));
}

void EventQueue::schedule_at(SimTime at, CategoryId category,
                             Callback&& fn) {
  schedule_on(current_domain(), at, category, std::move(fn));
}

void EventQueue::schedule_in(SimDuration delay, Callback&& fn) {
  schedule_in(delay, /*category=*/0, std::move(fn));
}

void EventQueue::schedule_in(SimDuration delay, CategoryId category,
                             Callback&& fn) {
  DomainId d = current_domain();
  SimTime base = domains_[d].now;
  schedule_on(d, base + (delay < 0 ? 0 : delay), category, std::move(fn));
}

void EventQueue::schedule_on(DomainId domain, SimTime at, CategoryId category,
                             Callback&& fn) {
  DomainId src = current_domain();
  Domain& sender = domains_[src];
  std::uint64_t seq = sender.next_seq++;
  if (domain == src) {
    if (at < sender.now) at = sender.now;
    sender.heap.push(at, src, seq, category, std::move(fn));
    if (!sharded())
      pending_gauge_.set(static_cast<std::int64_t>(sender.heap.size()));
    return;
  }
  // Cross-domain: into the target's inbox, merged at the next barrier.
  // The (at, src, seq) key is allocated on the sender, so the merged order
  // is a function of content, not of inbox arrival interleaving.
  Domain& target = domains_[domain];
  bool was_empty;
  {
    std::lock_guard<std::mutex> lk(target.inbox_mu);
    was_empty = target.inbox.empty();
    target.inbox.push_back(Entry{at, src, seq, category, std::move(fn)});
  }
  // Whoever turns the inbox non-empty lists it for the barrier: the
  // sending shard's list mid-window, the driver's list otherwise.
  if (was_empty)
    lists_[tls_ctx.queue == this ? src % shards_ : shards_]
        .inbox_targets.push_back(domain);
}

void EventQueue::run_at_barrier(Callback fn) {
  if (!sharded() || tls_ctx.queue != this) {
    fn();
    return;
  }
  DomainId d = tls_ctx.domain;
  Domain& dom = domains_[d];
  if (dom.commits.empty()) lists_[d % shards_].commit_domains.push_back(d);
  dom.commits.push_back(std::move(fn));
}

void EventQueue::dispatch(Domain& dom, CategoryId cat, Callback& fn) {
  executed_ctr_.inc();
  categories_[cat].executed->inc();
  if (time_dispatch_ && (executed_ctr_.value() & dispatch_mask_) == 0) {
    std::int64_t t0 = obs::Tracer::wall_clock_ns();
    fn();
    std::int64_t wall = obs::Tracer::wall_clock_ns() - t0;
    dispatch_wall_.record(wall);
    categories_[cat].wall->record(wall);
    note_slow_dispatch(dom.now, wall, cat);
  } else {
    fn();
  }
}

bool EventQueue::step() {
  if (sharded()) return false;  // sharded runs advance window-wise only
  Domain& dom = domains_[0];
  if (dom.heap.empty()) return false;
  // The pop moves the callback out of its slab slot, so the callback may
  // schedule freely (even into the slot it just left) while it runs.
  EventHeap::Popped e = dom.heap.pop();
  pending_gauge_.set(static_cast<std::int64_t>(dom.heap.size()));
  dom.now = e.at;
  dispatch(dom, e.cat, e.fn);
  return true;
}

void EventQueue::set_dispatch_sampling(std::uint32_t every) {
  std::uint64_t mask = 0;
  while (((mask + 1) << 1) <= every) mask = (mask << 1) | 1;
  dispatch_mask_ = mask;
}

std::size_t EventQueue::pending() const {
  if (!sharded()) return domains_[0].heap.size();
  std::size_t n = 0;
  for (const Domain& dom : domains_) {
    n += dom.heap.size();
    std::lock_guard<std::mutex> lk(dom.inbox_mu);
    n += dom.inbox.size();
  }
  return n;
}

// ------------------------------------------------------- EventHeap

void EventQueue::EventHeap::push(SimTime at, DomainId src, std::uint64_t seq,
                                 CategoryId cat, Callback&& fn) {
  static_assert(sizeof(Slot) == 64);
  if (seq >> 48)
    throw std::overflow_error("EventQueue: 2^48 events from one domain");
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    free_head_ = slab_[slot].next_free;
  }
  slab_[slot].fn = std::move(fn);
  slab_[slot].cat = cat;
  const Key k{at, static_cast<std::uint64_t>(src) << 48 | seq};
  (at > last_at_ + kNearHorizon ? far_ : near_).push(k, slot);
}

EventQueue::EventHeap::Popped EventQueue::EventHeap::pop() {
  KeyHeap& tier = near_first() ? near_ : far_;
  const std::uint32_t slot = tier.top_slot();
  last_at_ = tier.top().at;
  tier.pop();
  Slot& top = slab_[slot];
  Popped out{last_at_, top.cat, std::move(top.fn)};
  top.next_free = free_head_;
  free_head_ = slot;
  return out;
}

void EventQueue::EventHeap::KeyHeap::push(const Key& k, std::uint32_t slot) {
  static_assert(sizeof(Group) == 64);
  // Sift up through a hole: parents move down until the key fits.
  std::size_t j = slots_.size();
  slots_.push_back(slot);
  if (((j + 3) >> 2) >= groups_.size()) groups_.emplace_back();
  while (j > 0) {
    std::size_t parent = (j - 1) / 4;
    if (!before(k, key(parent))) break;
    key(j) = key(parent);
    slots_[j] = slots_[parent];
    j = parent;
  }
  key(j) = k;
  slots_[j] = slot;
}

void EventQueue::EventHeap::KeyHeap::pop() {
  const std::size_t n = slots_.size() - 1;  // the heap's size after this
  const Key last = key(n);
  const std::uint32_t last_slot = slots_[n];
  slots_.pop_back();
  if (n == 0) return;
  // Floyd's pop: walk the hole from the root to a leaf along the earliest
  // child, then sift the former last key up from there. The last key
  // belongs near the bottom (successors are scheduled later than what
  // runs now), so this skips the comparison against it on the way down.
  std::size_t i = 0;
  for (std::size_t first = 1; first < n; first = 4 * i + 1) {
    const Key* sib = groups_[i + 1].keys;  // node i's children
    std::size_t c = 0;
    if (first + 4 <= n) {
      std::size_t lo = before(sib[1], sib[0]) ? 1 : 0;
      std::size_t hi = before(sib[3], sib[2]) ? 3 : 2;
      c = before(sib[hi], sib[lo]) ? hi : lo;
    } else {
      for (std::size_t k = 1; first + k < n; ++k)
        if (before(sib[k], sib[c])) c = k;
    }
    key(i) = sib[c];
    slots_[i] = slots_[first + c];
    i = first + c;
  }
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!before(last, key(parent))) break;
    key(i) = key(parent);
    slots_[i] = slots_[parent];
    i = parent;
  }
  key(i) = last;
  slots_[i] = last_slot;
}

// ------------------------------------------------------- NextEvents

void EventQueue::NextEvents::reset(std::size_t domains) {
  heap_.clear();
  pos_.assign(domains, kAbsent);
}

void EventQueue::NextEvents::place(std::uint32_t i, Slot slot) {
  heap_[i] = slot;
  pos_[slot.domain] = i;
}

void EventQueue::NextEvents::sift(std::uint32_t i) {
  Slot slot = heap_[i];
  while (i > 0) {
    std::uint32_t parent = (i - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, slot);
}

void EventQueue::NextEvents::set(DomainId domain, SimTime at) {
  std::uint32_t i = pos_[domain];
  if (i == kAbsent) {
    i = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(Slot{at, domain});
  } else {
    heap_[i].at = at;
  }
  sift(i);
}

void EventQueue::NextEvents::erase(DomainId domain) {
  std::uint32_t i = pos_[domain];
  if (i == kAbsent) return;
  pos_[domain] = kAbsent;
  Slot last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  sift(i);
}

DomainId EventQueue::NextEvents::pop() {
  DomainId d = heap_.front().domain;
  erase(d);
  return d;
}

// ------------------------------------------------------- windows

void EventQueue::refresh(DomainId d) {
  const Domain& dom = domains_[d];
  if (dom.heap.empty())
    next_.erase(d);
  else
    next_.set(d, dom.heap.top_at());
}

void EventQueue::ingest(Domain& dom, SimTime committed_bound) {
  {
    std::lock_guard<std::mutex> lk(dom.inbox_mu);
    batch_.swap(dom.inbox);
  }
  for (Entry& e : batch_) {
    if (e.at < committed_bound) {
      // Lookahead violation: the sender undercut the configured
      // lookahead and this event's time is already inside a committed
      // window. Count it and clamp — determinism over strict causality.
      violations_ctr_.inc();
      e.at = committed_bound;
    }
    dom.heap.push(e.at, e.src, e.seq, e.cat, std::move(e.fn));
  }
  batch_.clear();
}

void EventQueue::open_windows() {
  // The one pass over every domain per run()/run_until() call. Events
  // scheduled at setup or between calls (and the previous call's clock
  // floor) are folded in here, so no window has to scan.
  next_.reset(domains_.size());
  for (ShardLists& lists : lists_) lists.inbox_targets.clear();
  reached_ = std::numeric_limits<SimTime>::min();
  for (DomainId d = 0; d < domains_.size(); ++d) {
    Domain& dom = domains_[d];
    dom.now = std::max(dom.now, clock_floor_);
    reached_ = std::max(reached_, dom.now);
    ingest(dom, committed_bound_);
    refresh(d);
  }
}

void EventQueue::ingest_inboxes(SimTime committed_bound) {
  merge_lists(lists_, &ShardLists::inbox_targets, order_);
  for (DomainId d : order_) {
    ingest(domains_[d], committed_bound);
    refresh(d);
  }
}

void EventQueue::exec_domain(DomainId d, SimTime bound) {
  Domain& dom = domains_[d];
  TlsCtx saved = tls_ctx;
  tls_ctx = TlsCtx{this, d};
  while (!dom.heap.empty() && dom.heap.top_at() < bound) {
    EventHeap::Popped e = dom.heap.pop();
    dom.now = e.at;
    dispatch(dom, e.cat, e.fn);
  }
  tls_ctx = saved;
}

void EventQueue::exec_shard(std::uint32_t shard, SimTime bound) {
  for (DomainId d : lists_[shard].active) exec_domain(d, bound);
}

void EventQueue::exec_claimed_shards(SimTime bound) {
  for (;;) {
    std::uint32_t i = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (i >= busy_shards_.size()) return;
    std::uint32_t s = busy_shards_[i];
    std::int64_t t0 = time_dispatch_ ? obs::Tracer::wall_clock_ns() : 0;
    exec_shard(s, bound);
    if (time_dispatch_)
      lists_[s].wall_ns = obs::Tracer::wall_clock_ns() - t0;
  }
}

void EventQueue::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime bound;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      bound = window_bound_;
    }
    exec_claimed_shards(bound);
    bool last;
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      last = --busy_executors_ == 0;
    }
    if (last) done_cv_.notify_all();
  }
}

void EventQueue::run_window(SimTime bound) {
  // Claim every domain with an event below the bound. No other domain can
  // gain one during the window: a domain's heap grows mid-window only
  // from its own events (cross-domain sends wait in inboxes).
  busy_shards_.clear();
  while (!next_.empty() && next_.earliest() < bound) {
    DomainId d = next_.pop();
    std::uint32_t s = d % shards_;
    if (lists_[s].active.empty()) busy_shards_.push_back(s);
    lists_[s].active.push_back(d);
  }
  std::sort(busy_shards_.begin(), busy_shards_.end());
  for (std::uint32_t s : busy_shards_)
    std::sort(lists_[s].active.begin(), lists_[s].active.end());

  if (busy_shards_.size() < 2 || workers_.empty()) {
    // Nobody to wait for: the driver runs the window itself.
    for (std::uint32_t s : busy_shards_) exec_shard(s, bound);
  } else {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      window_bound_ = bound;
      next_shard_.store(0, std::memory_order_relaxed);
      busy_executors_ = static_cast<std::uint32_t>(workers_.size());
      ++epoch_;
    }
    pool_cv_.notify_all();
    exec_claimed_shards(bound);  // the driver is an executor too
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      done_cv_.wait(lk, [&] { return busy_executors_ == 0; });
    }
    if (time_dispatch_) {
      std::int64_t slowest = 0;
      for (std::uint32_t s : busy_shards_)
        slowest = std::max(slowest, lists_[s].wall_ns);
      for (std::uint32_t s : busy_shards_)
        barrier_stall_.record(slowest - lists_[s].wall_ns);
    }
  }
  for (std::uint32_t s : busy_shards_) {
    for (DomainId d : lists_[s].active) {
      reached_ = std::max(reached_, domains_[d].now);
      refresh(d);
    }
    lists_[s].active.clear();
  }
}

void EventQueue::run_commits() {
  // Driver-thread, domains quiescent: the deterministic commit point.
  merge_lists(lists_, &ShardLists::commit_domains, order_);
  if (order_.empty()) return;
  std::vector<Callback> commits;
  for (DomainId d : order_) {
    commits.swap(domains_[d].commits);
    for (Callback& fn : commits) fn();
    commits.clear();
  }
  // Commits run as domain 0 and may have scheduled onto its heap.
  refresh(0);
}

std::uint64_t EventQueue::run_windows(bool bounded, SimTime until) {
  std::uint64_t before = executed_ctr_.value();
  open_windows();
  while (!next_.empty()) {
    SimTime tmin = next_.earliest();
    if (bounded && tmin > until) break;
    // The conservative window bound: the first lookahead-grid point past
    // the earliest pending event. bound <= tmin + lookahead, so any
    // cross-domain send from t >= tmin with delay >= lookahead lands at or
    // past the bound — never inside a window a peer already executed.
    SimTime bound = (tmin / lookahead_ + 1) * lookahead_;
    if (bounded) bound = std::min(bound, until + 1);
    run_window(bound);
    windows_ctr_.inc();
    committed_bound_ = bound;
    now_ = bound - 1;
    ingest_inboxes(bound);
    run_commits();
  }
  // Every non-empty heap has an entry in next_, and only the driver's
  // list (the last commits' sends) names non-empty inboxes.
  std::size_t pending = 0;
  for (const NextEvents::Slot& slot : next_.slots())
    pending += domains_[slot.domain].heap.size();
  for (DomainId d : lists_[shards_].inbox_targets) {
    std::lock_guard<std::mutex> lk(domains_[d].inbox_mu);
    pending += domains_[d].inbox.size();
  }
  pending_gauge_.set(static_cast<std::int64_t>(pending));
  return executed_ctr_.value() - before;
}

std::uint64_t EventQueue::run() {
  if (!sharded()) {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }
  std::uint64_t n = run_windows(/*bounded=*/false, 0);
  now_ = std::max(now_, reached_);
  clock_floor_ = std::numeric_limits<SimTime>::min();
  return n;
}

std::uint64_t EventQueue::run_until(SimTime until) {
  if (!sharded()) {
    Domain& dom = domains_[0];
    std::uint64_t n = 0;
    while (!dom.heap.empty() && dom.heap.top_at() <= until) {
      step();
      ++n;
    }
    if (dom.now < until) dom.now = until;
    return n;
  }
  std::uint64_t n = run_windows(/*bounded=*/true, until);
  // Every domain's clock reaches `until`. Outside its own events only
  // domain 0's clock is read (the driver schedules as domain 0); the rest
  // are raised when the next call opens.
  domains_[0].now = std::max(domains_[0].now, until);
  clock_floor_ = until;
  now_ = std::max(now_, until);
  return n;
}

// ------------------------------------------------------------------ Timer

Timer::Timer(EventQueue& queue, Fn fn, EventQueue::CategoryId category)
    : state_(std::make_shared<State>()) {
  state_->queue = &queue;
  state_->fn = std::move(fn);
  state_->category = category;
}

Timer::~Timer() {
  // Pending heap entries share the state; disarming makes them inert and
  // dropping the callback releases whatever it captured.
  state_->armed = false;
  state_->fn = nullptr;
}

void Timer::arm(SimTime at) {
  State& s = *state_;
  if (at < s.queue->now()) at = s.queue->now();
  s.armed = true;
  s.target = at;
  // An entry at or before the new deadline reaches it for free: when it
  // fires early it re-schedules itself to the (moved) target. Only an
  // earlier deadline needs a fresh entry.
  if (s.entry_live && s.entry_at <= at) return;
  push_entry(state_);
}

void Timer::cancel() { state_->armed = false; }

void Timer::push_entry(const std::shared_ptr<State>& s) {
  s->entry_at = s->target;
  s->entry_live = true;
  ++s->entries;
  std::uint64_t gen = ++s->gen;
  s->queue->schedule_at(s->target, s->category,
                        [s, gen] { fire(s, gen); });
}

void Timer::fire(const std::shared_ptr<State>& s, std::uint64_t gen) {
  if (gen != s->gen) return;  // superseded by a later (earlier-armed) entry
  s->entry_live = false;
  if (!s->armed) return;
  if (s->target > s->queue->now()) {
    // Deadline moved later since this entry was pushed; chase it.
    push_entry(s);
    return;
  }
  s->armed = false;
  // Copy: the callback may destroy the Timer (clearing s->fn) mid-call.
  Fn fn = s->fn;
  fn();
}

}  // namespace tts::simnet
