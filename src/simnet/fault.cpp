#include "simnet/fault.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "obs/flight.hpp"
#include "simnet/event_queue.hpp"

namespace tts::simnet {
namespace {

/// The rule ids one verdict visits. A packet is rarely covered by more
/// than a few rules, so they collect inline and spill to the heap only
/// past kInline.
class RuleHits {
 public:
  void add(std::span<const std::uint32_t> ids) {
    for (std::uint32_t id : ids) {
      if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
      if (size_ >= kInline)
        spill_.push_back(id);
      else
        inline_[size_] = id;
      ++size_;
    }
  }
  /// The ids in declaration order, each once: a kBoth rule covering both
  /// ends of a packet is found through both indexes.
  std::span<const std::uint32_t> in_order() {
    std::uint32_t* first = size_ > kInline ? spill_.data() : inline_.data();
    std::sort(first, first + size_);
    return {first, static_cast<std::size_t>(
                       std::unique(first, first + size_) - first)};
  }

 private:
  static constexpr std::size_t kInline = 16;
  std::array<std::uint32_t, kInline> inline_{};
  std::vector<std::uint32_t> spill_;
  std::size_t size_ = 0;
};

}  // namespace

FaultPlane::FaultPlane(FaultScenario scenario, obs::Registry* registry)
    : scenario_(std::move(scenario)), registry_(registry) {
  std::vector<PrefixIndex::Entry> dst, src, hosts;
  for (std::size_t i = 0; i < scenario_.rules.size(); ++i) {
    const FaultRule& rule = scenario_.rules[i];
    auto id = static_cast<std::uint32_t>(i);
    if (rule.direction != FaultDirection::kOutbound)
      dst.emplace_back(rule.prefix, id);
    if (rule.direction != FaultDirection::kInbound)
      src.emplace_back(rule.prefix, id);
  }
  for (std::size_t i = 0; i < scenario_.outages.size(); ++i)
    hosts.emplace_back(net::Ipv6Prefix(scenario_.outages[i].host, 128),
                       static_cast<std::uint32_t>(i));
  dst_rules_ = PrefixIndex(std::move(dst));
  src_rules_ = PrefixIndex(std::move(src));
  outage_hosts_ = PrefixIndex(std::move(hosts));

  rngs_.push_back(util::Rng(scenario_.seed).stream("faultplane"));
  if (!registry_) return;
  registry_->enroll(udp_dropped_, "fault_udp_dropped", {}, this);
  registry_->enroll(udp_host_down_, "fault_udp_host_down", {}, this);
  registry_->enroll(tcp_blackholed_, "fault_tcp_blackholed", {}, this);
  registry_->enroll(tcp_rst_, "fault_tcp_rst", {}, this);
  registry_->enroll(tcp_stalled_, "fault_tcp_stalled", {}, this);
  registry_->enroll(stall_data_dropped_, "fault_stall_data_dropped", {},
                    this);
  registry_->enroll(delays_injected_, "fault_delays_injected", {}, this);
  registry_->enroll(domain_fallback_, "fault_domain_fallback", {}, this);
}

void FaultPlane::configure_domains(DomainId domains) {
  util::Rng root(scenario_.seed);
  while (rngs_.size() < domains)
    rngs_.push_back(root.stream("faultplane-domain")
                        .stream(static_cast<std::uint64_t>(rngs_.size())));
}

FaultPlane::~FaultPlane() {
  if (registry_) registry_->drop_owner(this);
}

void FaultPlane::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (!flight_) return;
  fault_notes_[kNoteUdpDrop] = flight_->note("udp_drop");
  fault_notes_[kNoteUdpHostDown] = flight_->note("udp_host_down");
  fault_notes_[kNoteTcpBlackhole] = flight_->note("tcp_blackhole");
  fault_notes_[kNoteTcpRst] = flight_->note("tcp_rst");
  fault_notes_[kNoteTcpStall] = flight_->note("tcp_stall");
}

void FaultPlane::inject(obs::Counter& counter, InjectNote which) {
  counter.inc();
  if (flight_)
    flight_->record(obs::FlightKind::kFaultInjected, fault_notes_[which]);
}

void FaultPlane::arm_windows(EventQueue& events) {
  if (!flight_ || windows_armed_) return;
  windows_armed_ = true;
  EventQueue::CategoryId cat = events.register_category("fault_window");
  // The lambdas capture the recorder (which must outlive the scheduled
  // events), never the plane: a scenario re-install cannot dangle them.
  obs::FlightRecorder* flight = flight_;
  obs::FlightRecorder::NoteId rule_note = flight->note("rule_window");
  obs::FlightRecorder::NoteId outage_note = flight->note("outage_window");
  auto edge = [&](SimTime from, SimTime until,
                  obs::FlightRecorder::NoteId note, std::int64_t index,
                  std::int64_t scope) {
    if (from == until) return;  // zero-width: never fires, never logged
    events.schedule_on(0, from, cat, [flight, note, index, scope] {
      flight->record(obs::FlightKind::kFaultWindowOpen, note, /*trace=*/0,
                     index, scope);
    });
    if (until == kFaultForever) return;
    events.schedule_on(0, until, cat, [flight, note, index, scope] {
      flight->record(obs::FlightKind::kFaultWindowClose, note, /*trace=*/0,
                     index, scope);
    });
  };
  for (std::size_t i = 0; i < scenario_.rules.size(); ++i)
    edge(scenario_.rules[i].from, scenario_.rules[i].until, rule_note,
         static_cast<std::int64_t>(i),
         static_cast<std::int64_t>(
             scenario_.rules[i].prefix.address().hi64()));
  for (std::size_t i = 0; i < scenario_.outages.size(); ++i)
    edge(scenario_.outages[i].from, scenario_.outages[i].until, outage_note,
         static_cast<std::int64_t>(i),
         static_cast<std::int64_t>(scenario_.outages[i].host.hi64()));
}

bool FaultPlane::host_down(const net::Ipv6Address& host, SimTime now) const {
  for (std::uint32_t id : outage_hosts_.longest(host))
    if (scenario_.outages[id].active(now)) return true;
  return false;
}

FaultPlane::UdpVerdict FaultPlane::on_udp(const net::Ipv6Address& src,
                                          const net::Ipv6Address& dst,
                                          std::uint16_t dst_port, SimTime now,
                                          DomainId domain) {
  TcpVerdict v = walk<Transport::kUdp>(src, dst, dst_port, now, domain);
  return UdpVerdict{v.action != TcpAction::kNone, v.extra_latency};
}

FaultPlane::TcpVerdict FaultPlane::on_tcp_connect(const net::Ipv6Address& src,
                                                  const net::Ipv6Address& dst,
                                                  std::uint16_t dst_port,
                                                  SimTime now,
                                                  DomainId domain) {
  return walk<Transport::kTcp>(src, dst, dst_port, now, domain);
}

template <FaultPlane::Transport kTransport>
FaultPlane::TcpVerdict FaultPlane::walk(const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst,
                                        std::uint16_t dst_port, SimTime now,
                                        DomainId domain) {
  util::Rng& rng = domain_rng(domain);
  constexpr bool tcp = kTransport == Transport::kTcp;
  TcpVerdict verdict;
  auto hit = [&](obs::Counter& counter, InjectNote note, TcpAction action) {
    inject(counter, note);
    verdict.action = action;
    return verdict;
  };
  // A dropped datagram and a vanished SYN (a lost SYN looks like a
  // blackhole) are the same verdict, counted per transport.
  auto drop = [&] {
    return tcp ? hit(tcp_blackholed_, kNoteTcpBlackhole, TcpAction::kBlackhole)
               : hit(udp_dropped_, kNoteUdpDrop, TcpAction::kBlackhole);
  };
  if (host_down(dst, now))
    return tcp ? drop()
               : hit(udp_host_down_, kNoteUdpHostDown, TcpAction::kBlackhole);
  // Only rules whose prefix covers the packet can match; FaultRule::matches
  // is the scope contract the two indexes encode (the unknown source ::
  // never matches an outbound scope), leaving the port to check here.
  RuleHits hits;
  auto collect = [&hits](std::span<const std::uint32_t> ids) {
    hits.add(ids);
  };
  dst_rules_.for_each_covering(dst, collect);
  if (!src.is_unspecified()) src_rules_.for_each_covering(src, collect);
  for (std::uint32_t id : hits.in_order()) {
    const FaultRule& rule = scenario_.rules[id];
    if (!(tcp ? rule.tcp : rule.udp) || !rule.active(now) ||
        (rule.dst_port != 0 && rule.dst_port != dst_port))
      continue;
    switch (rule.kind) {
      case FaultKind::kBlackhole:
        return drop();
      case FaultKind::kLoss:
        if (rng.chance(rule.probability)) return drop();
        break;
      case FaultKind::kRst:
        if (!tcp) break;  // TCP-only semantics; no effect on datagrams
        return hit(tcp_rst_, kNoteTcpRst, TcpAction::kRst);
      case FaultKind::kStall:
        if (!tcp) break;
        return hit(tcp_stalled_, kNoteTcpStall, TcpAction::kStall);
      case FaultKind::kDelay:
        verdict.extra_latency += rule.added_latency;
        if (rule.added_jitter > 0)
          verdict.extra_latency += static_cast<SimDuration>(
              rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
        break;
    }
  }
  if (verdict.extra_latency > 0) delays_injected_.inc();
  return verdict;
}

}  // namespace tts::simnet
