#include "obs/flight.hpp"

#include "util/format.hpp"
#include "util/table.hpp"

namespace tts::obs {
namespace {

/// Dump rate limit: at most kMaxDumps, kMinDumpGap of sim time apart.
constexpr std::size_t kMaxDumps = 8;
constexpr simnet::SimDuration kMinDumpGap = simnet::minutes(1);

}  // namespace

void FlightRecorder::record(FlightKind kind, Tracer::NameId detail,
                            Tracer::TraceId trace, std::int64_t a,
                            std::int64_t b) {
  if (!tracer_.enabled()) return;
  auto lock = tracer_.lock_ring();
  const simnet::SimTime at = tracer_.mark_locked(kind, detail, trace, a, b);
  for (TriggerRule& rule : rules_) {
    if (rule.kind != kind) continue;
    std::size_t slot = rule.next;
    rule.next = (rule.next + 1) % rule.burst;
    simnet::SimTime oldest = rule.recent[slot];
    rule.recent[slot] = at;
    ++rule.seen;
    // The slot we just overwrote held the (burst-1)-marks-ago timestamp:
    // once the buffer has wrapped, a full burst inside the window fires.
    if (rule.seen >= rule.burst && at - oldest <= rule.window)
      trigger_locked(rule.reason);
  }
}

void FlightRecorder::add_trigger(FlightKind kind, std::uint32_t burst,
                                 simnet::SimDuration window,
                                 std::string reason) {
  if (burst == 0) burst = 1;
  TriggerRule rule{kind, burst, window, std::move(reason), {}, 0, 0};
  rule.recent.assign(burst, 0);
  auto lock = tracer_.lock_ring();
  rules_.push_back(std::move(rule));
}

void FlightRecorder::trigger(std::string_view reason) {
  if (!tracer_.enabled()) return;
  auto lock = tracer_.lock_ring();
  trigger_locked(reason);
}

void FlightRecorder::trigger_locked(std::string_view reason) {
  ++triggers_;
  simnet::SimTime now = tracer_.sim_now();
  if (dumps_.size() >= kMaxDumps ||
      (last_dump_at_ >= 0 && now - last_dump_at_ < kMinDumpGap)) {
    ++suppressed_;
    return;
  }
  last_dump_at_ = now;
  dumps_.emplace_back(std::string(reason), dump_locked(64));
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  for (SpanRecord& rec : tracer_.records()) {
    if (!rec.flight) continue;
    out.push_back({rec.sim_begin, rec.trace, rec.a, rec.b, *rec.flight,
                   std::move(rec.detail)});
  }
  return out;
}

std::string FlightRecorder::dump(std::size_t max_entries) const {
  auto lock = tracer_.lock_ring();
  return dump_locked(max_entries);
}

std::string FlightRecorder::dump_locked(std::size_t max_entries) const {
  std::vector<SpanRecord> tail = tracer_.records_locked(max_entries);
  util::TextTable table(util::cat("flight recorder (", tail.size(), " of ",
                                  tracer_.completed_, " ring entries)"));
  table.set_header({"t", "entry", "dur", "trace", "detail", "a", "b"},
                   {util::Align::kLeft, util::Align::kLeft,
                    util::Align::kRight, util::Align::kRight,
                    util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight});
  const std::string none = "-";
  for (const SpanRecord& rec : tail) {
    table.add_row(
        {simnet::format_duration(rec.sim_begin), rec.name,
         rec.instant ? none : simnet::format_duration(rec.sim_duration()),
         rec.trace ? util::cat("0x", util::hex64(rec.trace)) : none,
         rec.detail.empty() ? none : rec.detail,
         rec.flight ? util::grouped(rec.a) : none,
         rec.flight ? util::grouped(rec.b) : none});
  }
  if (tracer_.dropped_ > 0)
    table.add_note(util::cat("ring overwrote ", tracer_.dropped_,
                             " oldest entries"));
  return table.to_string();
}

}  // namespace tts::obs
