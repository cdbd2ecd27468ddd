#include "scan/engine.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/flight.hpp"
#include "util/format.hpp"

namespace tts::scan {

ScanEngine::ScanEngine(simnet::Network& network, ResultStore& results,
                       ScanEngineConfig config)
    : network_(network),
      results_(results),
      config_(std::move(config)),
      rng_(config_.seed),
      queue_(config_.max_pending),
      pump_timer_(network.events(), [this] { pump(); },
                  network.events().register_category("scan_pump")),
      probe_cat_(network.events().register_category("scan_probe")) {
  if (!config_.budget && config_.max_pps <= 0)
    throw std::invalid_argument("ScanEngine: max_pps must be positive");
  if (!(config_.budget_weight > 0) || !std::isfinite(config_.budget_weight))
    throw std::invalid_argument(
        "ScanEngine: budget_weight must be positive and finite");
  if (config_.min_protocol_delay < 0)
    throw std::invalid_argument(
        "ScanEngine: min_protocol_delay must be non-negative");
  if (config_.max_protocol_delay < config_.min_protocol_delay)
    throw std::invalid_argument(
        "ScanEngine: inverted protocol-delay range (max < min)");
  if (config_.max_pending == 0)
    throw std::invalid_argument("ScanEngine: max_pending must be >= 1");
  if (config_.probe_timeout <= 0 || config_.connect_timeout <= 0)
    throw std::invalid_argument("ScanEngine: timeouts must be positive");
  if (config_.connect_timeout > config_.probe_timeout)
    throw std::invalid_argument(
        "ScanEngine: connect_timeout must not exceed probe_timeout");

  for (std::size_t p = 0; p < kProtocolCount; ++p) {
    retry_[p] = config_.retry_by_proto[p].value_or(config_.retry);
    // ScanIntent::attempt is 8-bit; anything near that is a config bug.
    if (retry_[p].max_retries > 100)
      throw std::invalid_argument("ScanEngine: max_retries too large");
  }
  if (config_.breaker.enabled) {
    if (config_.breaker.prefix_len > 128)
      throw std::invalid_argument("ScanEngine: breaker prefix_len > 128");
    breaker_.emplace(config_.breaker);
  }

  network_.attach(config_.scanner_address);
  if (config_.tracer) {
    for (std::size_t p = 0; p < kProtocolCount; ++p) {
      span_ids_[p] = config_.tracer->intern(
          util::cat("probe/", label(static_cast<Protocol>(p))));
      lifecycle_ids_[p] = config_.tracer->intern(
          util::cat("target/", label(static_cast<Protocol>(p))));
    }
    stage_name_ = config_.tracer->intern("probe/stage");
    grant_name_ = config_.tracer->intern("probe/grant");
    retry_name_ = config_.tracer->intern("probe/retry");
    shed_name_ = config_.tracer->intern("probe/shed");
    record_name_ = config_.tracer->intern("probe/record");
    quarantine_name_ = config_.tracer->intern("probe/quarantine");
  }
  // Route transitions commit at window barriers; an announce is the moment
  // quarantined targets become launchable again.
  network_.subscribe_routes([this](const net::Ipv6Prefix& /*prefix*/,
                                   simnet::RouteOp op, simnet::SimTime at) {
    if (op == simnet::RouteOp::kAnnounce) drain_quarantine(at);
  });
  if (breaker_ && config_.flight) {
    obs::FlightRecorder* flight = config_.flight;
    breaker_->set_transition_observer(
        [flight](const net::Ipv6Address& prefix,
                 CircuitBreakerSet::State /*from*/,
                 CircuitBreakerSet::State to, simnet::SimTime /*now*/) {
          obs::FlightKind kind =
              to == CircuitBreakerSet::State::kOpen
                  ? obs::FlightKind::kBreakerOpen
                  : to == CircuitBreakerSet::State::kHalfOpen
                        ? obs::FlightKind::kBreakerHalfOpen
                        : obs::FlightKind::kBreakerClose;
          flight->record(kind, /*detail=*/0, /*trace=*/0,
                         static_cast<std::int64_t>(prefix.hi64()),
                         static_cast<std::int64_t>(prefix.lo64()));
          if (kind == obs::FlightKind::kBreakerOpen)
            flight->trigger("breaker-open");
        });
    obs::FlightRecorder::NoteId as_note = flight->note("as");
    breaker_->set_as_transition_observer(
        [flight, as_note](const net::Ipv6Address& as_key, bool open,
                          simnet::SimTime /*now*/) {
          flight->record(open ? obs::FlightKind::kBreakerOpen
                              : obs::FlightKind::kBreakerClose,
                         as_note, /*trace=*/0,
                         static_cast<std::int64_t>(as_key.hi64()),
                         static_cast<std::int64_t>(as_key.lo64()));
          if (open) flight->trigger("as-breaker-open");
        });
  }

  if (config_.budget) {
    budget_ = config_.budget;
  } else {
    own_budget_ = std::make_unique<SharedBudget>(SharedBudgetConfig{
        config_.max_pps, kPumpSlackSlots, config_.registry});
    budget_ = own_budget_.get();
  }
  budget_id_ =
      budget_->add_client(std::string(label(config_.dataset)),
                          config_.budget_weight, [this] { arm_pump(); });
  enroll_metrics();
}

ScanEngine::~ScanEngine() {
  budget_->remove_client(budget_id_);
  if (config_.registry) config_.registry->drop_owner(this);
  network_.detach(config_.scanner_address);
}

void ScanEngine::enroll_metrics() {
  obs::Registry* reg = config_.registry;
  if (!reg) return;
  obs::Labels ds{{"dataset", std::string(label(config_.dataset))}};
  reg->enroll(submitted_, "scan_submitted", ds, this);
  reg->enroll(skipped_blackout_, "scan_skipped_blackout", ds, this);
  reg->enroll(backpressure_, "scan_backpressure_events", ds, this);
  reg->enroll(probes_launched_, "scan_probes_launched", ds, this);
  reg->enroll(probes_completed_, "scan_probes_completed", ds, this);
  reg->enroll(pump_wakes_, "scan_pump_wakes", ds, this);
  reg->enroll(refill_deferred_, "scan_refill_deferred", ds, this);
  reg->enroll(retries_, "scan_retries", ds, this);
  reg->enroll(retry_success_, "scan_retry_success_total", ds, this);
  reg->enroll(retry_dropped_, "scan_retry_dropped", ds, this);
  reg->enroll(route_deferred_, "scan_route_deferred", ds, this);
  reg->enroll(route_requeued_, "scan_route_requeued", ds, this);
  reg->enroll(retry_delay_, "scan_retry_delay_us", ds, this);
  if (breaker_) breaker_->enroll(*reg, ds, this);
  reg->enroll(token_wait_, "scan_token_wait_us", ds, this);
  reg->enroll(queue_delay_, "scan_queue_delay_us", ds, this);
  reg->enroll(probe_rtt_, "scan_probe_rtt_us", ds, this);
  reg->enroll(pending_gauge_, "scan_pending_depth", ds, this);
  reg->enroll(pending_peak_gauge_, "scan_pending_peak", ds, this);
  for (std::size_t p = 0; p < kProtocolCount; ++p) {
    obs::Labels labeled = ds;
    labeled.emplace_back("proto",
                         std::string(label(static_cast<Protocol>(p))));
    reg->enroll(launched_by_proto_[p], "scan_probes_launched", labeled, this);
    reg->enroll(completed_by_proto_[p], "scan_probes_completed",
                std::move(labeled), this);
  }
}

SubmitResult ScanEngine::try_submit(const net::Ipv6Address& target,
                                    Dataset lane) {
  simnet::SimTime now = network_.now();
  auto it = last_scan_.find(target);
  if (it != last_scan_.end() && now - it->second < config_.rescan_blackout) {
    skipped_blackout_.inc();
    return SubmitResult::kBlackout;
  }
  if (queue_.full(lane)) {
    // Backpressure: the target is NOT blackout-marked, so the feed may
    // resubmit it once the lane drains.
    backpressure_.inc();
    if (on_backpressure_) on_backpressure_(lane);
    return SubmitResult::kQueueFull;
  }
  last_scan_[target] = now;
  stage_target(target, lane);
  arm_pump();
  return SubmitResult::kAccepted;
}

void ScanEngine::submit_bulk(const std::vector<net::Ipv6Address>& targets) {
  // Wrap the list in a cursor source: the pump pulls it chunk-by-chunk as
  // staging room frees up instead of scheduling the whole sweep up front.
  struct Cursor {
    std::vector<net::Ipv6Address> targets;
    std::size_t next = 0;
  };
  auto cursor = std::make_shared<Cursor>(Cursor{targets, 0});
  add_source([cursor](std::size_t max_n) {
    std::size_t n = std::min(max_n, cursor->targets.size() - cursor->next);
    auto first = cursor->targets.begin() +
                 static_cast<std::ptrdiff_t>(cursor->next);
    std::vector<net::Ipv6Address> out(first,
                                      first + static_cast<std::ptrdiff_t>(n));
    cursor->next += n;
    return out;
  });
}

void ScanEngine::add_source(SourceFn fn, Dataset lane) {
  sources_.push_back(Source{std::move(fn), lane});
  arm_pump();
}

void ScanEngine::stage_target(const net::Ipv6Address& target, Dataset lane) {
  ScanIntent intent{.not_before = network_.now(),
                    .dataset = lane,
                    .chain_pos = 0,
                    .attempt = 0,
                    .target = target};
  begin_intent_trace(intent);
  bool ok = queue_.push(std::move(intent));
  assert(ok && "stage_target called on a full lane");
  (void)ok;
  submitted_.inc();
  pending_gauge_.set(static_cast<std::int64_t>(queue_.size()));
  pending_peak_gauge_.set(static_cast<std::int64_t>(queue_.peak()));
}

void ScanEngine::stage_successor(const ScanIntent& intent,
                                 simnet::SimTime slot) {
  std::size_t next = static_cast<std::size_t>(intent.chain_pos) + 1;
  if (next >= kProtocolCount) return;
  // Staggered inter-protocol delay (Appendix A.2.1: 10 s to 10 min between
  // the protocols of one target), relative to the previous probe's launch.
  simnet::SimDuration span =
      config_.max_protocol_delay - config_.min_protocol_delay;
  simnet::SimDuration jitter =
      span > 0 ? static_cast<simnet::SimDuration>(
                     rng_.below(static_cast<std::uint64_t>(span)))
               : 0;
  ScanIntent successor{.not_before = slot + config_.min_protocol_delay + jitter,
                       .dataset = intent.dataset,
                       .chain_pos = static_cast<std::uint8_t>(next),
                       .attempt = 0,
                       .target = intent.target};
  begin_intent_trace(successor);
  bool ok = queue_.push(std::move(successor));
  assert(ok && "successor push must fit: its predecessor just left");
  (void)ok;
}

void ScanEngine::begin_intent_trace(ScanIntent& intent) {
  intent.trace = mint_trace(intent.dataset);
  obs::Tracer* tracer = config_.tracer;
  if (!tracer || !tracer->enabled()) return;
  auto proto = static_cast<Protocol>(intent.chain_pos);
  intent.lifecycle_span =
      tracer->open(lifecycle_ids_[static_cast<std::size_t>(proto)],
                   intent.trace);
  intent.stage_span = tracer->open(stage_name_, intent.trace);
}

void ScanEngine::end_stage_span(const ScanIntent& intent,
                                obs::Tracer::NameId how) {
  obs::Tracer* tracer = config_.tracer;
  if (!tracer || intent.stage_span == obs::Tracer::kNoSpan) return;
  tracer->close(intent.stage_span);
  tracer->instant(how, intent.trace);
}

void ScanEngine::refill_from_sources() {
  for (std::size_t i = 0; i < sources_.size();) {
    Source& source = sources_[i];
    bool drained = false;
    std::size_t room;
    while ((room = queue_.free_slots(source.lane)) > 0) {
      std::vector<net::Ipv6Address> batch = source.fn(room);
      if (batch.empty()) {  // a source is dry when it returns nothing
        drained = true;
        break;
      }
      simnet::SimTime now = network_.now();
      for (const auto& target : batch) {
        auto it = last_scan_.find(target);
        if (it != last_scan_.end() &&
            now - it->second < config_.rescan_blackout) {
          skipped_blackout_.inc();
          continue;
        }
        last_scan_[target] = now;
        stage_target(target, source.lane);
      }
    }
    if (drained)
      sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
    else
      ++i;
  }
}

std::optional<simnet::SimTime> ScanEngine::next_wake() const {
  // A source with staging room wants a pull — but staging is useless
  // before a token accrues, so wake at the budget's suggestion instead of
  // immediately (budget-aware source scheduling: bulk feeds skip staging
  // churn on wakes that cannot launch anything).
  for (const Source& source : sources_)
    if (queue_.free_slots(source.lane) > 0)
      return budget_->suggested_wake(budget_id_, network_.now());
  auto due = queue_.next_not_before();
  if (!due) return std::nullopt;
  simnet::SimTime now = network_.now();
  if (*due > now) return *due;
  // Due now but token-blocked: the budget says when to retry, folding in
  // the burst-bank batching slack when no peer is contending.
  return budget_->suggested_wake(budget_id_, now);
}

void ScanEngine::arm_pump() {
  // Keep the budget's view of this engine current on every (re-)arm: the
  // backlog flag is what peers' fair shares and wake-ups key off.
  simnet::SimTime now = network_.now();
  budget_->set_backlog(budget_id_, queue_.has_due(now), now);
  auto wake = next_wake();
  if (!wake) {
    pump_timer_.cancel();
    return;
  }
  pump_timer_.arm(*wake);
}

void ScanEngine::pump() {
  const simnet::SimTime now = network_.now();
  pump_wakes_.inc();
  // Budget-aware source scheduling: staging from a bulk source is wasted
  // work on a wake that cannot launch (no token accrued — e.g. a peer's
  // wake-up nudge landed early). Skip the refill and let next_wake() re-arm
  // at the budget's suggestion; already-staged due intents still launch
  // below when a token turns out to be available.
  bool token_ready = budget_->next_slot(budget_id_, now) <= now;
  if (token_ready)
    refill_from_sources();
  else if (!sources_.empty())
    refill_deferred_.inc();
  // Launch every due intent the budget grants a token for, inline: one
  // timer wake covers the whole banked batch (up to burst_slots + 1), so a
  // saturated sweep pays ~1 event per batch instead of one per probe.
  if (!quarantine_.empty()) drain_quarantine(now);
  while (const ScanIntent* next = queue_.peek_due(now)) {
    if (network_.route_withdrawn(next->target, now)) {
      // Withdrawn route: the target is *unreachable*, not unresponsive.
      // Park the intent (no token spent, no record synthesized) until the
      // route's re-announcement re-stages it.
      ScanIntent intent = *queue_.pull_due(now);
      end_stage_span(intent, quarantine_name_);
      route_deferred_.inc();
      quarantine_.push_back(std::move(intent));
      continue;
    }
    if (breaker_ && !breaker_->would_admit(next->target, now)) {
      // Open breaker: shed before spending a token, so a dead prefix costs
      // no budget and the freed slots go to responsive space.
      ScanIntent intent = *queue_.pull_due(now);
      end_stage_span(intent, shed_name_);
      shed_probe(intent, now);
      continue;
    }
    std::optional<simnet::SimTime> slot = budget_->try_acquire(budget_id_, now);
    if (!slot) break;  // next token not accrued, or a contending peer's turn
    ScanIntent intent = *queue_.pull_due(now);
    if (breaker_) breaker_->note_launch(intent.target, now);
    token_wait_.record(now - *slot);
    queue_delay_.record(now - intent.not_before);
    end_stage_span(intent, grant_name_);
    // Only a first attempt advances the protocol chain: a retry's
    // predecessor already staged the successor when it first launched.
    if (intent.attempt == 0) stage_successor(intent, now);
    launch(intent, now);
  }
  if (token_ready)
    refill_from_sources();  // freed lane slots admit the next bulk chunk
  pending_gauge_.set(static_cast<std::int64_t>(queue_.size()));
  pending_peak_gauge_.set(static_cast<std::int64_t>(queue_.peak()));
  arm_pump();
}

void ScanEngine::launch(const ScanIntent& intent, simnet::SimTime at) {
  // A target's protocol chain runs in Protocol order: the chain position
  // is the protocol.
  auto proto = static_cast<Protocol>(intent.chain_pos);
  probes_launched_.inc();
  launched_by_proto_[static_cast<std::size_t>(proto)].inc();
  auto src_port =
      static_cast<std::uint16_t>(1024 + (next_ephemeral_++ % 60000));

  ScanRecord base;
  base.dataset = intent.dataset;
  base.protocol = proto;
  base.target = intent.target;
  base.at = at;
  simnet::Endpoint src{config_.scanner_address, src_port};
  obs::Tracer::SpanId span = obs::Tracer::kNoSpan;
  if (config_.tracer)
    span = config_.tracer->open(span_ids_[static_cast<std::size_t>(proto)],
                                intent.trace);
  ProbeDoneFn done = [this, intent, proto, span](ScanRecord r) {
    probes_completed_.inc();
    completed_by_proto_[static_cast<std::size_t>(proto)].inc();
    probe_rtt_.record(network_.now() - r.at);
    if (config_.tracer) config_.tracer->close(span);
    finish_probe(intent, std::move(r));
  };
  if (proto == Protocol::kCoap)
    probe_coap(src, std::move(base), std::move(done));
  else
    probe_tcp(src, std::move(base), std::move(done));
}

void ScanEngine::finish_probe(const ScanIntent& intent, ScanRecord record) {
  simnet::SimTime now = network_.now();
  bool timeout = record.outcome == Outcome::kTimeout;
  // Any answer — even an RST or garbage bytes — proves the path carries
  // packets; only silence counts against the prefix.
  if (breaker_) breaker_->on_outcome(record.target, !timeout, now);
  if (intent.attempt > 0 && record.outcome == Outcome::kSuccess)
    retry_success_.inc();
  const RetryPolicy& policy = retry_[static_cast<std::size_t>(record.protocol)];
  if (timeout && intent.attempt < policy.max_retries) {
    std::uint32_t attempt = intent.attempt + 1u;
    simnet::SimDuration delay = policy.backoff(attempt, rng_);
    ScanIntent again = intent;
    again.attempt = static_cast<std::uint8_t>(attempt);
    again.not_before = now + delay;
    // The retry re-enters staging on the same trace: mark the re-stage and
    // open a fresh staging span (the lifecycle span rides along in `again`).
    if (config_.tracer && intent.trace != 0) {
      config_.tracer->instant(retry_name_, intent.trace);
      again.stage_span = config_.tracer->open(stage_name_, intent.trace);
    }
    if (queue_.push(again)) {
      // Re-staged through the queue: pacing and the shared budget govern
      // the retry like any first attempt. The intermediate timeout is
      // suppressed — each probe chain slot tallies exactly one outcome.
      retries_.inc();
      retry_delay_.record(delay);
      if (config_.flight)
        config_.flight->record(obs::FlightKind::kRetryStaged, /*detail=*/0,
                               intent.trace, attempt, delay);
      pending_gauge_.set(static_cast<std::int64_t>(queue_.size()));
      pending_peak_gauge_.set(static_cast<std::int64_t>(queue_.peak()));
      arm_pump();
      return;
    }
    retry_dropped_.inc();  // lane full: give up, record the timeout
    if (config_.tracer) config_.tracer->close(again.stage_span);
    if (config_.flight)
      config_.flight->record(obs::FlightKind::kRetryDropped, /*detail=*/0,
                             intent.trace, attempt);
  }
  if (config_.tracer && intent.trace != 0) {
    config_.tracer->instant(record_name_, intent.trace);
    config_.tracer->close(intent.lifecycle_span);
  }
  results_.add(std::move(record));
}

void ScanEngine::drain_quarantine(simnet::SimTime now) {
  if (quarantine_.empty()) return;
  std::size_t kept = 0;
  bool staged = false;
  for (std::size_t i = 0; i < quarantine_.size(); ++i) {
    ScanIntent& intent = quarantine_[i];
    if (network_.route_withdrawn(intent.target, now)) {
      quarantine_[kept++] = std::move(intent);  // still unrouted: keep parked
      continue;
    }
    ScanIntent again = std::move(intent);
    again.not_before = now;
    // Back into staging on the same trace: a fresh staging span covers the
    // re-queued wait, exactly like a retry re-stage.
    if (config_.tracer && again.trace != 0)
      again.stage_span = config_.tracer->open(stage_name_, again.trace);
    if (queue_.push(again)) {
      route_requeued_.inc();
      staged = true;
      continue;
    }
    // Lane full: stay quarantined; the next announce commit or pump wake
    // retries, so the intent cannot strand.
    if (config_.tracer) config_.tracer->close(again.stage_span);
    again.stage_span = obs::Tracer::kNoSpan;
    quarantine_[kept++] = std::move(again);
  }
  quarantine_.resize(kept);
  if (staged) {
    pending_gauge_.set(static_cast<std::int64_t>(queue_.size()));
    pending_peak_gauge_.set(static_cast<std::int64_t>(queue_.peak()));
    arm_pump();
  }
}

void ScanEngine::shed_probe(const ScanIntent& intent, simnet::SimTime now) {
  breaker_->shed();
  if (config_.flight)
    config_.flight->record(obs::FlightKind::kBreakerShed, /*detail=*/0,
                           intent.trace,
                           static_cast<std::int64_t>(
                               breaker_->key_of(intent.target).hi64()),
                           static_cast<std::int64_t>(
                               breaker_->key_of(intent.target).lo64()));
  if (config_.tracer && intent.trace != 0) {
    config_.tracer->instant(record_name_, intent.trace);
    config_.tracer->close(intent.lifecycle_span);
  }
  // The chain continues: a later protocol's probe is the half-open trial
  // that eventually re-closes the breaker. (A shed retry's successor was
  // already staged by its first attempt.)
  if (intent.attempt == 0) stage_successor(intent, now);
  ScanRecord record;
  record.dataset = intent.dataset;
  record.protocol = static_cast<Protocol>(intent.chain_pos);
  record.target = intent.target;
  record.at = now;
  record.outcome = Outcome::kTimeout;
  results_.add(std::move(record));
}

}  // namespace tts::scan
