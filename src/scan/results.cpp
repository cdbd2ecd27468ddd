#include "scan/results.hpp"

#include "proto/ports.hpp"
#include "util/serialize.hpp"

namespace tts::scan {

std::string_view to_string(Protocol p) {
  switch (p) {
    case Protocol::kHttp: return "HTTP";
    case Protocol::kHttps: return "HTTPS";
    case Protocol::kSsh: return "SSH";
    case Protocol::kMqtt: return "MQTT";
    case Protocol::kMqtts: return "MQTTS";
    case Protocol::kAmqp: return "AMQP";
    case Protocol::kAmqps: return "AMQPS";
    case Protocol::kCoap: return "CoAP";
  }
  return "?";
}

std::string_view label(Protocol p) {
  switch (p) {
    case Protocol::kHttp: return "http";
    case Protocol::kHttps: return "https";
    case Protocol::kSsh: return "ssh";
    case Protocol::kMqtt: return "mqtt";
    case Protocol::kMqtts: return "mqtts";
    case Protocol::kAmqp: return "amqp";
    case Protocol::kAmqps: return "amqps";
    case Protocol::kCoap: return "coap";
  }
  return "?";
}

std::uint16_t port_of(Protocol p) {
  switch (p) {
    case Protocol::kHttp: return proto::kHttpPort;
    case Protocol::kHttps: return proto::kHttpsPort;
    case Protocol::kSsh: return proto::kSshPort;
    case Protocol::kMqtt: return proto::kMqttPort;
    case Protocol::kMqtts: return proto::kMqttsPort;
    case Protocol::kAmqp: return proto::kAmqpPort;
    case Protocol::kAmqps: return proto::kAmqpsPort;
    case Protocol::kCoap: return proto::kCoapPort;
  }
  return 0;
}

bool is_tls(Protocol p) {
  return p == Protocol::kHttps || p == Protocol::kMqtts ||
         p == Protocol::kAmqps;
}

std::string_view to_string(Dataset d) {
  switch (d) {
    case Dataset::kNtp: return "Our Data";
    case Dataset::kHitlist: return "TUM IPv6 Hitlist";
    case Dataset::kRyeLevin: return "Rye and Levin";
  }
  return "?";
}

std::string_view label(Dataset d) {
  switch (d) {
    case Dataset::kNtp: return "ntp";
    case Dataset::kHitlist: return "hitlist";
    case Dataset::kRyeLevin: return "rye-levin";
  }
  return "?";
}

std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::kSuccess: return "success";
    case Outcome::kRefused: return "refused";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kTlsFailed: return "tls-failed";
    case Outcome::kMalformed: return "malformed";
  }
  return "?";
}

void ResultStore::add(ScanRecord record) {
  tally(record.dataset, record.protocol, record.outcome);
  if (record.outcome == Outcome::kSuccess)
    records_.push_back(std::move(record));
}

std::vector<const ScanRecord*> ResultStore::successes(
    Dataset dataset, Protocol protocol) const {
  std::vector<const ScanRecord*> out;
  for (const auto& r : records_)
    if (r.dataset == dataset && r.protocol == protocol) out.push_back(&r);
  return out;
}

std::uint64_t ResultStore::count(Dataset dataset, Protocol protocol,
                                 Outcome outcome) const {
  return counts_[static_cast<std::size_t>(dataset)]
                [static_cast<std::size_t>(protocol)]
                [static_cast<std::size_t>(outcome)];
}

std::uint64_t ResultStore::total(Dataset dataset, Protocol protocol) const {
  std::uint64_t n = 0;
  for (std::size_t o = 0; o < kOutcomeCount; ++o)
    n += counts_[static_cast<std::size_t>(dataset)]
                [static_cast<std::size_t>(protocol)][o];
  return n;
}

std::uint64_t ResultStore::total(Dataset dataset) const {
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < kProtocolCount; ++p)
    n += total(dataset, static_cast<Protocol>(p));
  return n;
}

namespace {

void save_record(util::ByteWriter& w, const ScanRecord& r) {
  w.u8(static_cast<std::uint8_t>(r.dataset));
  w.u8(static_cast<std::uint8_t>(r.protocol));
  w.u64(r.target.hi64());
  w.u64(r.target.lo64());
  w.i64(r.at);
  w.u8(static_cast<std::uint8_t>(r.outcome));
  w.u8(r.certificate.has_value() ? 1 : 0);
  if (r.certificate) {
    w.u64(r.certificate->fingerprint);
    w.str(r.certificate->subject);
    w.u8(r.certificate->self_signed ? 1 : 0);
    w.u32(r.certificate->not_before);
    w.u32(r.certificate->not_after);
  }
  w.i64(r.http_status);
  w.str(r.http_title);
  w.u8(r.http_has_title ? 1 : 0);
  w.str(r.http_server);
  w.str(r.ssh_banner);
  w.u8(r.ssh_hostkey.has_value() ? 1 : 0);
  if (r.ssh_hostkey) w.u64(*r.ssh_hostkey);
  w.u8(r.broker_auth_required.has_value()
           ? (*r.broker_auth_required ? 2 : 1)
           : 0);
  w.u32(static_cast<std::uint32_t>(r.coap_resources.size()));
  for (const auto& res : r.coap_resources) w.str(res);
}

// The fewest bytes save_record writes: the fixed fields, four empty
// strings, and a zero CoAP resource count.
constexpr std::size_t kMinRecordBytes = 55;

template <typename Enum>
Enum load_enum(util::ByteReader& rd, std::size_t count, const char* what) {
  std::uint8_t v = rd.u8();
  if (v >= count)
    throw util::SerializeError(std::string("ResultStore: bad ") + what +
                               " byte " + std::to_string(v));
  return static_cast<Enum>(v);
}

ScanRecord load_record(util::ByteReader& rd) {
  ScanRecord r;
  r.dataset = load_enum<Dataset>(rd, kDatasetCount, "dataset");
  r.protocol = load_enum<Protocol>(rd, kProtocolCount, "protocol");
  std::uint64_t hi = rd.u64();
  std::uint64_t lo = rd.u64();
  r.target = net::Ipv6Address::from_halves(hi, lo);
  r.at = rd.i64();
  r.outcome = load_enum<Outcome>(rd, kOutcomeCount, "outcome");
  if (rd.u8()) {
    proto::Certificate cert;
    cert.fingerprint = rd.u64();
    cert.subject = rd.str();
    cert.self_signed = rd.u8() != 0;
    cert.not_before = rd.u32();
    cert.not_after = rd.u32();
    r.certificate = std::move(cert);
  }
  r.http_status = static_cast<int>(rd.i64());
  r.http_title = rd.str();
  r.http_has_title = rd.u8() != 0;
  r.http_server = rd.str();
  r.ssh_banner = rd.str();
  if (rd.u8()) r.ssh_hostkey = rd.u64();
  std::uint8_t broker = rd.u8();
  if (broker) r.broker_auth_required = broker == 2;
  // Each resource is at least its 4-byte length.
  std::uint64_t ncoap = rd.count(rd.u32(), 4);
  r.coap_resources.reserve(ncoap);
  for (std::uint64_t i = 0; i < ncoap; ++i)
    r.coap_resources.push_back(rd.str());
  return r;
}

}  // namespace

void ResultStore::save_state(util::ByteWriter& w) const {
  for (std::size_t d = 0; d < kDatasetCount; ++d)
    for (std::size_t p = 0; p < kProtocolCount; ++p)
      for (std::size_t o = 0; o < kOutcomeCount; ++o) w.u64(counts_[d][p][o]);
  w.u32(static_cast<std::uint32_t>(records_.size()));
  for (const auto& r : records_) save_record(w, r);
}

ResultStore ResultStore::decode_state(util::ByteReader& r) {
  ResultStore store;
  for (std::size_t d = 0; d < kDatasetCount; ++d)
    for (std::size_t p = 0; p < kProtocolCount; ++p)
      for (std::size_t o = 0; o < kOutcomeCount; ++o)
        store.counts_[d][p][o] = r.u64();
  std::uint64_t n = r.count(r.u32(), kMinRecordBytes);
  store.records_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    store.records_.push_back(load_record(r));
  return store;
}

}  // namespace tts::scan
