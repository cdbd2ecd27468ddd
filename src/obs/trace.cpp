#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace tts::obs {

namespace {

/// to_string(FlightKind), indexed by the enum's value.
constexpr std::string_view kFlightNames[] = {
    "breaker_open",    "breaker_half_open", "breaker_close",
    "breaker_shed",    "fault_injected",    "slow_dispatch",
    "retry_dropped",   "fault_window_open", "fault_window_close",
    "route_withdrawn", "route_announced",
};
static_assert(std::size(kFlightNames) == kFlightKindCount);

}  // namespace

std::string_view to_string(FlightKind kind) {
  return kFlightNames[static_cast<std::size_t>(kind)];
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  ring_.reserve(capacity_);
  intern("");  // kNoName
  for (std::size_t k = 0; k < kFlightKindCount; ++k)
    flight_names_[k] = intern(to_string(static_cast<FlightKind>(k)));
}

std::int64_t Tracer::wall_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::NameId Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  stats_.emplace_back();
  ids_.emplace(names_.back(), id);
  return id;
}

Tracer::SpanId Tracer::open(NameId name, TraceId trace) {
  if (!enabled_) return kNoSpan;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Active& a = slots_[slot];
  a.name = name;
  a.sim_begin = sim_now();
  a.wall_begin_ns = wall_clock_ns();
  a.depth = static_cast<std::uint32_t>(open_count_++);
  a.trace = trace;
  a.in_use = true;
  ++a.gen;
  return (static_cast<SpanId>(a.gen) << 32) | (slot + 1);
}

void Tracer::close(SpanId id) {
  if (id == kNoSpan) return;
  std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  if (slot >= slots_.size()) return;
  Active& a = slots_[slot];
  if (!a.in_use || a.gen != static_cast<std::uint32_t>(id >> 32)) return;
  a.in_use = false;
  free_slots_.push_back(slot);
  --open_count_;
  commit({.sim_begin = a.sim_begin, .sim_end = sim_now(),
          .wall_ns = wall_clock_ns() - a.wall_begin_ns, .trace = a.trace,
          .name = a.name, .depth = a.depth});
}

void Tracer::instant(NameId name, TraceId trace) {
  if (!enabled_) return;
  const simnet::SimTime now = sim_now();
  commit({.sim_begin = now, .sim_end = now, .trace = trace, .name = name,
          .depth = static_cast<std::uint32_t>(open_count_),
          .kind = kInstantEntry});
}

simnet::SimTime Tracer::mark_locked(FlightKind kind, NameId detail,
                                    TraceId trace, std::int64_t a,
                                    std::int64_t b) {
  // No depth: marks also come from shard executors, which must not read
  // the domain-0 span slots.
  const simnet::SimTime now = sim_now();
  commit_locked({.sim_begin = now, .sim_end = now, .trace = trace, .a = a,
                 .b = b, .name = flight_names_[static_cast<std::size_t>(kind)],
                 .detail = detail, .kind = static_cast<std::uint8_t>(kind)});
  return now;
}

void Tracer::commit(const Entry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_locked(entry);
}

void Tracer::commit_locked(const Entry& entry) {
  const simnet::SimDuration sim = entry.sim_end - entry.sim_begin;
  SpanStats& s = stats_[entry.name];
  ++s.count;
  s.total_sim += sim;
  if (sim > s.max_sim) s.max_sim = sim;
  s.total_wall_ns += entry.wall_ns;
  if (entry.wall_ns > s.max_wall_ns) s.max_wall_ns = entry.wall_ns;

  ++completed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(entry);
  } else {
    ring_[ring_next_] = entry;
    ++dropped_;
  }
  ring_next_ = (ring_next_ + 1) % capacity_;
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> out;
  for (NameId id = 0; id < names_.size(); ++id)
    if (stats_[id].count > 0) out.emplace(names_[id], stats_[id]);
  return out;
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_locked(capacity_);
}

std::vector<SpanRecord> Tracer::records_locked(std::size_t max_entries) const {
  const std::size_t n = std::min(max_entries, ring_.size());
  // Once the ring is full, the oldest entry sits at ring_next_.
  const std::size_t oldest = ring_.size() < capacity_ ? 0 : ring_next_;
  std::vector<SpanRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = ring_[(oldest + ring_.size() - n + i) % ring_.size()];
    std::optional<FlightKind> flight;
    if (e.kind < kFlightKindCount) flight = static_cast<FlightKind>(e.kind);
    out.push_back({names_[e.name], e.sim_begin, e.sim_end, e.wall_ns,
                   e.depth, e.trace, e.kind != kSpanEntry, flight,
                   names_[e.detail], e.a, e.b});
  }
  return out;
}

}  // namespace tts::obs
