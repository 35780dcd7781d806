// Bimodal (2-bit saturating counter) branch predictor, Smith 1981 — the
// paper's speculation policy: a basic block is merged into a configuration
// only once the guarding branch's counter is saturated, and a configuration
// is flushed once the counter reaches the opposite saturation.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace dim::bt {

class BimodalPredictor {
 public:
  // Counter states: 0 strongly-not-taken .. 3 strongly-taken. New branches
  // start weakly-not-taken (1).
  void update(uint32_t pc, bool taken) {
    uint8_t& c = find_or_insert(pc).counter;
    if (taken) {
      if (c < 3) ++c;
    } else {
      if (c > 0) --c;
    }
  }

  // Predicted direction (>=2 means taken).
  bool predict(uint32_t pc) const { return counter(pc) >= 2; }

  // Direction if the counter is saturated (0 or 3); nullopt otherwise.
  // Speculation is gated on this ("the counter must achieve the maximum or
  // minimum value").
  std::optional<bool> saturated_direction(uint32_t pc) const {
    const uint8_t c = counter(pc);
    if (c == 0) return false;
    if (c == 3) return true;
    return std::nullopt;
  }

  uint8_t counter(uint32_t pc) const {
    const Slot* s = find(pc);
    return s == nullptr ? kInitial : s->counter;
  }

  size_t tracked_branches() const { return size_; }
  void reset();

  // Checkpoint support: every (pc, counter) pair ascending by PC, so the
  // serialized bytes do not depend on table layout.
  std::vector<std::pair<uint32_t, uint8_t>> export_counters() const;
  void restore_counters(const std::vector<std::pair<uint32_t, uint8_t>>& counters);

 private:
  static constexpr uint8_t kInitial = 1;
  static constexpr uint8_t kEmpty = 0xFF;  // slot holds no branch
  static constexpr size_t kMinSlots = 64;

  struct Slot {
    uint32_t pc = 0;
    uint8_t counter = kEmpty;
  };

  // Open addressing with linear probing over a power-of-two table that is
  // at most half full. Branch PCs are word-aligned, so the multiplicative
  // hash takes its index from the high product bits.
  size_t home(uint32_t pc) const {
    return static_cast<size_t>((pc * 0x9E3779B1u) >> shift_);
  }
  const Slot* find(uint32_t pc) const {
    if (size_ == 0) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(pc);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.counter == kEmpty) return nullptr;
      if (s.pc == pc) return &s;
    }
  }
  // The slot for `pc`, claimed with the initial counter when absent.
  Slot& find_or_insert(uint32_t pc);
  void rehash(size_t slots);

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 32;
};

}  // namespace dim::bt
