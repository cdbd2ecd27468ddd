#include "obs/flight.hpp"

#include "simnet/event_queue.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace tts::obs {
namespace {

/// Dump rate limit: at most kMaxDumps, kMinDumpGap of sim time apart.
constexpr std::size_t kMaxDumps = 8;
constexpr simnet::SimDuration kMinDumpGap = simnet::minutes(1);

}  // namespace

std::string_view to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kBreakerOpen:
      return "breaker_open";
    case FlightKind::kBreakerHalfOpen:
      return "breaker_half_open";
    case FlightKind::kBreakerClose:
      return "breaker_close";
    case FlightKind::kBreakerShed:
      return "breaker_shed";
    case FlightKind::kFaultInjected:
      return "fault_injected";
    case FlightKind::kSlowDispatch:
      return "slow_dispatch";
    case FlightKind::kRetryStaged:
      return "retry_staged";
    case FlightKind::kRetryDropped:
      return "retry_dropped";
    case FlightKind::kNote:
      return "note";
    case FlightKind::kFaultWindowOpen:
      return "fault_window_open";
    case FlightKind::kFaultWindowClose:
      return "fault_window_close";
    case FlightKind::kRouteWithdrawn:
      return "route_withdrawn";
    case FlightKind::kRouteAnnounced:
      return "route_announced";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {
  ring_.reserve(capacity_);
  notes_.emplace_back();  // NoteId 0 = ""
}

simnet::SimTime FlightRecorder::sim_now() const {
  return events_ ? events_->now() : 0;
}

FlightRecorder::NoteId FlightRecorder::note(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  for (NoteId id = 0; id < notes_.size(); ++id)
    if (notes_[id] == text) return id;
  notes_.emplace_back(text);
  return static_cast<NoteId>(notes_.size() - 1);
}

void FlightRecorder::record(FlightKind kind, NoteId detail,
                            std::uint64_t trace, std::int64_t a,
                            std::int64_t b, std::int64_t wall_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent ev;
  ev.sim = sim_now();
  ev.wall_ns = wall_ns ? wall_ns : (wall_clock_ ? wall_clock_() : 0);
  ev.trace = trace;
  ev.a = a;
  ev.b = b;
  ev.kind = kind;
  ev.detail = detail;
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[ring_next_] = ev;
    ++overwritten_;
  }
  ring_next_ = (ring_next_ + 1) % capacity_;

  for (TriggerRule& rule : rules_) {
    if (rule.kind != kind) continue;
    std::size_t slot = rule.next;
    rule.next = (rule.next + 1) % rule.burst;
    simnet::SimTime oldest = rule.recent[slot];
    rule.recent[slot] = ev.sim;
    ++rule.seen;
    // The slot we just overwrote held the (burst-1)-events-ago timestamp:
    // once the buffer has wrapped, a full burst inside the window fires.
    if (rule.seen >= rule.burst && ev.sim - oldest <= rule.window)
      trigger_locked(rule.reason);
  }
}

void FlightRecorder::add_trigger(FlightKind kind, std::uint32_t burst,
                                 simnet::SimDuration window,
                                 std::string reason) {
  if (burst == 0) burst = 1;
  TriggerRule rule{kind, burst, window, std::move(reason), {}, 0, 0};
  rule.recent.assign(burst, 0);
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(rule));
}

void FlightRecorder::trigger(std::string_view reason) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  trigger_locked(reason);
}

void FlightRecorder::trigger_locked(std::string_view reason) {
  ++triggers_;
  simnet::SimTime now = sim_now();
  if (dumps_.size() >= kMaxDumps ||
      (last_dump_at_ >= 0 && now - last_dump_at_ < kMinDumpGap)) {
    ++suppressed_;
    return;
  }
  last_dump_at_ = now;
  dumps_.emplace_back(std::string(reason), dump_locked(64));
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_locked();
}

std::vector<FlightEvent> FlightRecorder::events_locked() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::dump(std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_locked(max_events);
}

std::string FlightRecorder::dump_locked(std::size_t max_events) const {
  std::vector<FlightEvent> all = events_locked();
  std::size_t first = all.size() > max_events ? all.size() - max_events : 0;
  util::TextTable table(util::cat("flight recorder (", all.size() - first,
                                  " of ", recorded_, " events)"));
  table.set_header({"t", "kind", "trace", "detail", "a", "b"},
                   {util::Align::kLeft, util::Align::kLeft,
                    util::Align::kRight, util::Align::kLeft,
                    util::Align::kRight, util::Align::kRight});
  for (std::size_t i = first; i < all.size(); ++i) {
    const FlightEvent& ev = all[i];
    table.add_row({simnet::format_duration(ev.sim),
                   std::string(to_string(ev.kind)),
                   ev.trace ? util::cat("0x", util::hex64(ev.trace))
                            : std::string("-"),
                   notes_[ev.detail], util::grouped(ev.a),
                   util::grouped(ev.b)});
  }
  if (overwritten_ > 0)
    table.add_note(util::cat("ring overwrote ", overwritten_,
                             " oldest events"));
  return table.to_string();
}

}  // namespace tts::obs
