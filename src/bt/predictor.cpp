#include "bt/predictor.hpp"

#include <algorithm>

namespace dim::bt {

BimodalPredictor::Slot& BimodalPredictor::find_or_insert(uint32_t pc) {
  if (slots_.empty()) rehash(kMinSlots);
  size_t mask = slots_.size() - 1;
  size_t i = home(pc);
  for (;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.counter == kEmpty) break;
    if (s.pc == pc) return s;
  }
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(2 * slots_.size());
    mask = slots_.size() - 1;
    for (i = home(pc); slots_[i].counter != kEmpty; i = (i + 1) & mask) {
    }
  }
  ++size_;
  slots_[i] = Slot{pc, kInitial};
  return slots_[i];
}

void BimodalPredictor::rehash(size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{});
  shift_ = 32;
  for (size_t n = slots; n > 1; n >>= 1) --shift_;
  const size_t mask = slots - 1;
  for (const Slot& s : old) {
    if (s.counter == kEmpty) continue;
    size_t i = home(s.pc);
    while (slots_[i].counter != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void BimodalPredictor::reset() {
  slots_.clear();
  size_ = 0;
  shift_ = 32;
}

std::vector<std::pair<uint32_t, uint8_t>> BimodalPredictor::export_counters() const {
  std::vector<std::pair<uint32_t, uint8_t>> out;
  out.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.counter != kEmpty) out.emplace_back(s.pc, s.counter);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BimodalPredictor::restore_counters(
    const std::vector<std::pair<uint32_t, uint8_t>>& counters) {
  reset();
  for (const auto& [pc, c] : counters) find_or_insert(pc).counter = c;
}

}  // namespace dim::bt
