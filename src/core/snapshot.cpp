#include "core/snapshot.hpp"

#include "util/serialize.hpp"

namespace tts::core {

const SnapshotSection* StudySnapshot::section(std::string_view name) const {
  for (const auto& s : sections)
    if (s.name == name) return &s;
  return nullptr;
}

std::string StudySnapshot::serialize() const {
  util::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u64(seed);
  w.i64(at);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.str(s.name);
    w.str(s.bytes);
  }
  return w.take();
}

StudySnapshot StudySnapshot::parse(std::string_view bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kSnapshotMagic)
    throw util::SerializeError("snapshot: bad magic (not a study snapshot)");
  std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    throw util::SerializeError("snapshot: unsupported version " +
                               std::to_string(version) + " (this build reads " +
                               std::to_string(kSnapshotVersion) + ")");
  StudySnapshot snap;
  snap.seed = r.u64();
  snap.at = r.i64();
  // A section is at least its two string lengths.
  const std::uint64_t n = r.count(r.u32(), 8);
  snap.sections.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SnapshotSection s;
    s.name = r.str();
    s.bytes = r.str();
    snap.sections.push_back(std::move(s));
  }
  if (!r.done())
    throw util::SerializeError("snapshot: trailing bytes after sections");
  return snap;
}

namespace {
util::ByteReader reader_for(const StudySnapshot& snap,
                            std::string_view name) {
  const SnapshotSection* s = snap.section(name);
  if (!s)
    throw util::SerializeError("snapshot: missing section '" +
                               std::string(name) + "'");
  return util::ByteReader(s->bytes);
}
}  // namespace

std::uint64_t StudySnapshot::events_executed() const {
  util::ByteReader r = reader_for(*this, "clock");
  r.i64();  // sim time (also in the header)
  return r.u64();
}

ntp::CollectorState StudySnapshot::collector() const {
  util::ByteReader r = reader_for(*this, "collector");
  return ntp::AddressCollector::decode_state(r);
}

hitlist::Hitlist StudySnapshot::hitlist() const {
  util::ByteReader r = reader_for(*this, "hitlist");
  return hitlist::Hitlist::decode_state(r);
}

scan::ResultStore StudySnapshot::results() const {
  util::ByteReader r = reader_for(*this, "results");
  return scan::ResultStore::decode_state(r);
}

}  // namespace tts::core
