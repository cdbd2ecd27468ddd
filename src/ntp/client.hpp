// A standalone one-shot NTP client (SNTP-style, RFC 5905 section 14).
//
// The population's devices embed their own polling loops; this client is
// the reusable building block for examples, tests, and the telescope's
// pool prober: send one mode-3 request, validate the response, compute
// offset/delay from the four timestamps.
#pragma once

#include <cstdint>
#include <optional>

#include "net/ipv6.hpp"
#include "ntp/ntp_packet.hpp"
#include "simnet/network.hpp"
#include "util/task.hpp"

namespace tts::ntp {

struct NtpQueryResult {
  NtpPacket response;
  simnet::SimTime sent_at = 0;
  simnet::SimTime received_at = 0;

  /// Clock offset theta = ((T2-T1) + (T3-T4)) / 2 in microseconds.
  simnet::SimDuration offset() const;
  /// Round-trip delay delta = (T4-T1) - (T3-T2).
  simnet::SimDuration delay() const;
};

class NtpClient {
 public:
  /// Called once with the result, or nullopt on timeout / invalid
  /// response.
  using ResultFn = util::Task<void(std::optional<NtpQueryResult>)>;

  explicit NtpClient(simnet::Network& network)
      : network_(network),
        category_(network.events().register_category("ntp_query")) {}

  /// Fire one query from (src, src_port) to the server; the callback runs
  /// when a valid response arrives or after `timeout`.
  void query(const net::Ipv6Address& src, std::uint16_t src_port,
             const net::Ipv6Address& server, ResultFn on_result,
             simnet::SimDuration timeout = simnet::sec(5));

  std::uint64_t queries_sent() const { return sent_; }

 private:
  simnet::Network& network_;
  simnet::EventQueue::CategoryId category_;
  std::uint64_t sent_ = 0;
};

}  // namespace tts::ntp
