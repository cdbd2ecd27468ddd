// Quickstart: run a tiny end-to-end study — join capture-enabled servers to
// the simulated NTP Pool, collect client addresses for a virtual week, scan
// them in real time, and print what was found.
#include <iostream>

#include "analysis/iid_classes.hpp"
#include "analysis/network_agg.hpp"
#include "analysis/ssh_analysis.hpp"
#include "core/study.hpp"
#include "util/format.hpp"

using namespace tts;

int main() {
  // kTiny keeps this under a few seconds; see bench/ for the full scale.
  core::Study study(core::make_study_config(core::StudyScale::kTiny));
  std::cout << "Running a one-week miniature of the study...\n";
  study.run();

  auto addresses = study.ntp_addresses();
  std::cout << "\nCollected " << util::grouped(addresses.size())
            << " distinct IPv6 addresses from "
            << study.collector().total_requests() << " NTP requests ("
            << study.events_executed() << " simulation events).\n";

  auto agg = analysis::aggregate(study.collector().addresses(),
                                 study.registry());
  std::cout << "Networks: " << util::grouped(agg.nets48) << " /48s, "
            << agg.ases << " ASes, " << agg.countries << " countries.\n";

  auto dist = analysis::classify_addresses(addresses);
  std::cout << "\nIID classes of collected addresses:\n";
  for (std::size_t i = 0; i < analysis::kIidClassCount; ++i) {
    auto cls = static_cast<analysis::IidClass>(i);
    std::cout << "  " << util::pad_right(std::string(to_string(cls)), 16)
              << util::percent(dist.fraction(cls)) << "\n";
  }

  std::cout << "\nReal-time scan results (NTP-fed campaign):\n";
  for (std::size_t p = 0; p < scan::kProtocolCount; ++p) {
    auto proto = static_cast<scan::Protocol>(p);
    auto hits = study.results().successes(scan::Dataset::kNtp, proto);
    std::cout << "  " << util::pad_right(std::string(to_string(proto)), 6)
              << " " << hits.size() << " responsive endpoints\n";
  }
  std::cout << "Hit rate: " << util::permille(study.ntp_hit_rate())
            << " of probes answered.\n";

  auto ssh_hosts =
      analysis::dedup_ssh_hosts(study.results(), scan::Dataset::kNtp);
  auto outdated = analysis::outdatedness(ssh_hosts);
  std::cout << "\nSSH: " << ssh_hosts.size() << " unique host keys, "
            << util::percent(outdated.outdated_share())
            << " of assessable hosts outdated.\n";
  return 0;
}
