// Scan results: one record per probe, tagged with the campaign (NTP-fed or
// hitlist) — the raw material every analysis consumes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv6.hpp"
#include "proto/tlslite.hpp"
#include "simnet/time.hpp"

namespace tts::util {
class ByteWriter;
class ByteReader;
}  // namespace tts::util

namespace tts::scan {

enum class Protocol : std::uint8_t {
  kHttp,   // TCP 80
  kHttps,  // TCP 443
  kSsh,    // TCP 22
  kMqtt,   // TCP 1883
  kMqtts,  // TCP 8883
  kAmqp,   // TCP 5672
  kAmqps,  // TCP 5671
  kCoap,   // UDP 5683
};
inline constexpr std::size_t kProtocolCount = 8;

std::string_view to_string(Protocol p);
/// Lowercase metric-label form ("proto=ssh"); to_string() is the display name.
std::string_view label(Protocol p);
std::uint16_t port_of(Protocol p);
bool is_tls(Protocol p);

/// Which address feed produced the target.
enum class Dataset : std::uint8_t { kNtp, kHitlist, kRyeLevin };
inline constexpr std::size_t kDatasetCount = 3;
std::string_view to_string(Dataset d);
/// Metric-label form ("dataset=ntp"); to_string() is the display name.
std::string_view label(Dataset d);

enum class Outcome : std::uint8_t {
  kSuccess,      // full protocol exchange completed
  kRefused,      // TCP RST / no listener
  kTimeout,      // no answer (blackholed / filtered / UDP silence)
  kTlsFailed,    // TCP connected but the TLS handshake was rejected
  kMalformed,    // peer answered with bytes the protocol parser rejected
};
inline constexpr std::size_t kOutcomeCount = 5;
std::string_view to_string(Outcome o);

struct ScanRecord {
  Dataset dataset = Dataset::kNtp;
  Protocol protocol = Protocol::kHttp;
  net::Ipv6Address target;
  simnet::SimTime at = 0;
  Outcome outcome = Outcome::kTimeout;

  // TLS (kHttps/kMqtts/kAmqps, filled on completed handshakes)
  std::optional<proto::Certificate> certificate;

  // HTTP
  int http_status = 0;
  std::string http_title;        // extracted <title> ("" = none present)
  bool http_has_title = false;
  std::string http_server;

  // SSH
  std::string ssh_banner;
  std::optional<std::uint64_t> ssh_hostkey;

  // Brokers
  std::optional<bool> broker_auth_required;

  // CoAP
  std::vector<std::string> coap_resources;
};

/// Stores full records for successful probes; failures are only tallied
/// (dataset x protocol x outcome), which keeps memory flat across the
/// millions of probes a sweep of mostly unresponsive space produces.
class ResultStore {
 public:
  /// Count one probe's outcome; a success also keeps the record.
  void add(ScanRecord record);
  /// Count one outcome of a probe that keeps no record (anything but a
  /// success): the scanner tallies most probes this way, without building
  /// a ScanRecord at all.
  void tally(Dataset dataset, Protocol protocol, Outcome outcome) {
    ++counts_[static_cast<std::size_t>(dataset)]
             [static_cast<std::size_t>(protocol)]
             [static_cast<std::size_t>(outcome)];
  }

  /// Successful records (the only ones kept in full).
  const std::vector<ScanRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// All successful records for a protocol within a dataset.
  std::vector<const ScanRecord*> successes(Dataset dataset,
                                           Protocol protocol) const;

  std::uint64_t count(Dataset dataset, Protocol protocol,
                      Outcome outcome) const;
  /// Probes of any outcome for (dataset, protocol).
  std::uint64_t total(Dataset dataset, Protocol protocol) const;
  /// Probes of any outcome and protocol for a dataset.
  std::uint64_t total(Dataset dataset) const;

  /// Serialize the outcome tensor and every kept success record into a
  /// snapshot section (all ScanRecord fields, including certificates).
  void save_state(util::ByteWriter& w) const;
  /// Decode a section written by save_state().
  static ResultStore decode_state(util::ByteReader& r);

 private:
  std::vector<ScanRecord> records_;
  std::uint64_t counts_[kDatasetCount][kProtocolCount][kOutcomeCount] = {};
};

}  // namespace tts::scan
