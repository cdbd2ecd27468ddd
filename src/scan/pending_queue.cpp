#include "scan/pending_queue.hpp"

#include <algorithm>

namespace tts::scan {

PendingQueue::PendingQueue(std::size_t lane_capacity)
    : lane_capacity_(lane_capacity) {}

bool PendingQueue::push(ScanIntent intent) {
  Lane& lane = lanes_[static_cast<std::size_t>(intent.dataset)];
  if (lane.size() >= lane_capacity_) return false;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(intent);
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = intent;
  }
  lane.push_back(Key{intent.not_before, next_seq_++, slot});
  std::push_heap(lane.begin(), lane.end(), Later{});
  peak_ = std::max(peak_, size());
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
    simnet::SimTime t = lane.front().not_before;
    if (!earliest || t < *earliest) earliest = t;
  }
  return earliest;
}

const ScanIntent* PendingQueue::peek_due(simnet::SimTime now) const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::size_t li = (rr_next_ + i) % lanes_.size();
    const Lane& lane = lanes_[li];
    if (lane.empty() || lane.front().not_before > now) continue;
    return &slab_[lane.front().slot];
  }
  return nullptr;
}

std::optional<ScanIntent> PendingQueue::pull_due(simnet::SimTime now) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::size_t li = (rr_next_ + i) % lanes_.size();
    Lane& lane = lanes_[li];
    if (lane.empty() || lane.front().not_before > now) continue;
    std::pop_heap(lane.begin(), lane.end(), Later{});
    const std::uint32_t slot = lane.back().slot;
    lane.pop_back();
    ScanIntent intent = std::move(slab_[slot]);
    free_.push_back(slot);
    rr_next_ = (li + 1) % lanes_.size();
    return intent;
  }
  return std::nullopt;
}

}  // namespace tts::scan
