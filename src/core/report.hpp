// StudyReport: every paper artefact as one structured value.
//
// The bench binaries print individual tables; downstream users of the
// library usually want the whole picture at once. build_report() runs all
// analyses over a finished Study and returns plain data; render_markdown()
// turns it into a shareable document.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/broker_analysis.hpp"
#include "analysis/fingerprint.hpp"
#include "analysis/iid_classes.hpp"
#include "analysis/network_agg.hpp"
#include "analysis/security_score.hpp"
#include "analysis/ssh_analysis.hpp"
#include "core/study.hpp"

namespace tts::core {

struct DatasetScanSummary {
  std::string dataset;
  // Per Table 2: unique responsive addresses / TLS addresses / unique
  // certs-or-keys, in protocol order HTTP, SSH, MQTT, AMQP, CoAP.
  struct Row {
    std::string protocol;
    std::uint64_t addresses = 0;
    std::uint64_t tls_addresses = 0;
    std::uint64_t certs_or_keys = 0;
  };
  std::vector<Row> rows;
};

struct TitleGroupEntry {
  std::string title;
  std::uint64_t ntp = 0;
  std::uint64_t hitlist = 0;
};

struct StudyReport {
  // Collection (Tables 1/7, Section 3)
  std::uint64_t collected_addresses = 0;
  std::uint64_t ntp_requests = 0;
  analysis::NetworkAggregates ntp_aggregates;
  analysis::NetworkAggregates hitlist_full_aggregates;
  std::vector<std::pair<std::string, std::uint64_t>> per_server;

  // Figure 1
  analysis::IidDistribution ntp_iids;
  analysis::IidDistribution hitlist_iids;
  double ntp_eyeball_share = 0;
  double hitlist_eyeball_share = 0;

  // Table 2
  DatasetScanSummary ntp_scans;
  DatasetScanSummary hitlist_scans;

  // Table 3 (top HTTP title groups by certificate)
  std::vector<TitleGroupEntry> title_groups;

  // Figures 2/3 + headline
  analysis::OutdatednessStats ntp_ssh_outdated;
  analysis::OutdatednessStats hitlist_ssh_outdated;
  analysis::AccessControlStats ntp_mqtt_auth;
  analysis::AccessControlStats hitlist_mqtt_auth;
  analysis::SecurityScore ntp_security;
  analysis::SecurityScore hitlist_security;

  // Extension
  analysis::HostBounds ntp_host_bounds;

  // Section 5
  telescope::ClassifierReport telescope;

  double hit_rate = 0;
};

/// Run all analyses over a finished study.
StudyReport build_report(const Study& study);

/// Render the report as GitHub-flavoured markdown.
std::string render_markdown(const StudyReport& report);

}  // namespace tts::core
