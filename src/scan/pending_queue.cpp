#include "scan/pending_queue.hpp"

#include <algorithm>

namespace tts::scan {

PendingQueue::PendingQueue(std::size_t capacity) : capacity_(capacity) {}

bool PendingQueue::push(ScanIntent intent) {
  if (heap_.size() >= capacity_) return false;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(intent);
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = intent;
  }
  heap_.push_back(Key{intent.not_before, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_ = std::max(peak_, size());
  return true;
}

std::optional<simnet::SimTime> PendingQueue::next_not_before() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().not_before;
}

const ScanIntent* PendingQueue::peek_due(simnet::SimTime now) const {
  if (heap_.empty() || heap_.front().not_before > now) return nullptr;
  return &slab_[heap_.front().slot];
}

std::optional<ScanIntent> PendingQueue::pull_due(simnet::SimTime now) {
  if (heap_.empty() || heap_.front().not_before > now) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  ScanIntent intent = std::move(slab_[slot]);
  free_.push_back(slot);
  return intent;
}

}  // namespace tts::scan
