#include "scan/pending_queue.hpp"

namespace tts::scan {

PendingQueue::PendingQueue(std::size_t lane_capacity)
    : lane_capacity_(lane_capacity) {}

bool PendingQueue::push(ScanIntent intent) {
  Lane& lane = lanes_[static_cast<std::size_t>(intent.dataset)];
  if (lane.size() >= lane_capacity_) return false;
  lane.push(Entry{std::move(intent), next_seq_++});
  ++size_;
  if (size_ > peak_) peak_ = size_;
  return true;
}

std::size_t PendingQueue::free_slots(Dataset lane) const {
  std::size_t used = lanes_[static_cast<std::size_t>(lane)].size();
  return used >= lane_capacity_ ? 0 : lane_capacity_ - used;
}

std::size_t PendingQueue::lane_size(Dataset lane) const {
  return lanes_[static_cast<std::size_t>(lane)].size();
}

std::optional<simnet::SimTime> PendingQueue::next_not_before() const {
  std::optional<simnet::SimTime> earliest;
  for (const Lane& lane : lanes_) {
    if (lane.empty()) continue;
    simnet::SimTime t = lane.top().intent.not_before;
    if (!earliest || t < *earliest) earliest = t;
  }
  return earliest;
}

const ScanIntent* PendingQueue::peek_due(simnet::SimTime now) const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::size_t li = (rr_next_ + i) % lanes_.size();
    const Lane& lane = lanes_[li];
    if (lane.empty() || lane.top().intent.not_before > now) continue;
    return &lane.top().intent;
  }
  return nullptr;
}

std::optional<ScanIntent> PendingQueue::pull_due(simnet::SimTime now) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::size_t li = (rr_next_ + i) % lanes_.size();
    Lane& lane = lanes_[li];
    if (lane.empty() || lane.top().intent.not_before > now) continue;
    ScanIntent intent = lane.top().intent;
    lane.pop();
    --size_;
    rr_next_ = (li + 1) % lanes_.size();
    return intent;
  }
  return std::nullopt;
}

}  // namespace tts::scan
