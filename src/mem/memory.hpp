// Sparse byte-addressable memory used both as instruction and data storage.
// Little-endian (MIPS is bi-endian; the Minimips the paper uses is
// configured little-endian, and all our workloads are written against that).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dim::mem {

class Memory {
 public:
  static constexpr uint32_t kPageBits = 16;  // 64 KiB pages
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  // Copies and moves never carry the page TLB along: it points into the
  // source's pages.
  Memory() = default;
  Memory(const Memory& other) : pages_(other.pages_) {}
  Memory(Memory&& other) noexcept : pages_(std::move(other.pages_)) {
    other.reset_tlb();
  }
  Memory& operator=(const Memory& other) {
    if (this != &other) {
      pages_ = other.pages_;
      reset_tlb();
    }
    return *this;
  }
  Memory& operator=(Memory&& other) noexcept {
    if (this != &other) {
      pages_ = std::move(other.pages_);
      reset_tlb();
      other.reset_tlb();
    }
    return *this;
  }

  uint8_t read8(uint32_t addr) const;
  uint16_t read16(uint32_t addr) const;
  uint32_t read32(uint32_t addr) const;

  void write8(uint32_t addr, uint8_t value);
  void write16(uint32_t addr, uint16_t value);
  void write32(uint32_t addr, uint32_t value);

  // Bulk helpers for loaders and tests.
  void write_block(uint32_t addr, const uint8_t* data, size_t size);
  std::vector<uint8_t> read_block(uint32_t addr, size_t size) const;

  // Number of distinct pages touched (used by tests and stats).
  size_t pages_allocated() const { return pages_.size(); }

  // Content hash of the image: 64-bit FNV-1a (offset basis
  // 0xcbf29ce484222325, prime 0x100000001b3) over every allocated page in
  // ascending page-index order, each page contributing its index (xored in
  // as one 32-bit value, then one multiply) followed by its kPageSize
  // bytes. An allocated all-zero page therefore changes the hash.
  // Snapshots persist this value and serve and sweep compare it, so the
  // definition is part of the snapshot format and must never change.
  uint64_t content_hash() const;

  // Lowest address whose byte differs from `other` (pages absent on one
  // side compare as zero), or nullopt when the images are identical. Used
  // by the differential fuzzer to pinpoint a memory divergence instead of
  // just reporting mismatching hashes.
  std::optional<uint32_t> first_difference(const Memory& other) const;

  // Sparse-page iteration for serialization: every allocated page as
  // (page index, bytes), ascending by index. The page index is the address
  // right-shifted by kPageBits; an allocated all-zero page IS reported
  // (it is part of the image identity — see content_hash). Pointers are
  // invalidated by any write to an unallocated page.
  std::vector<std::pair<uint32_t, const std::vector<uint8_t>*>> pages_sorted() const;

  // Replaces the entire image with exactly `pages` (deserialization).
  // Every page must be kPageSize bytes; throws std::invalid_argument
  // otherwise. Duplicate indices keep the last occurrence.
  void restore_pages(
      const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& pages);

  // Host-fast-path access for the superblock trace engine: the raw bytes
  // of the page containing `addr`, or nullptr when that page was never
  // allocated (absent pages read as zero; neither accessor allocates).
  // The pointer stays valid until restore_pages() replaces the image —
  // page buffers are heap-stable across map rehashes and are never freed
  // individually. Callers caching it must drop it on restore (the trace
  // cache's clear() hook).
  const uint8_t* page_data(uint32_t addr) const {
    const Page* p = find_page(addr);
    return p ? p->data() : nullptr;
  }
  uint8_t* page_data_mut(uint32_t addr) {
    Page* p = find_page(addr);
    return p ? p->data() : nullptr;
  }

 private:
  using Page = std::vector<uint8_t>;
  static constexpr uint32_t kNoPage = ~0u;  // no page index is this large

  Page& page_for(uint32_t addr);

  // The allocated page holding `addr`, or nullptr. The last page found is
  // remembered (a one-entry TLB), so runs of accesses to one page skip the
  // hash map. Only allocated pages are remembered, and page buffers never
  // move or die while the map holds them, so the entry stays valid until
  // the map itself is replaced (copy, move, restore_pages). Because a
  // const read updates the TLB, one Memory must not be read from two
  // threads at once.
  Page* find_page(uint32_t addr) const {
    const uint32_t key = addr >> kPageBits;
    if (key == tlb_key_) return tlb_page_;
    auto it = pages_.find(key);
    if (it == pages_.end()) return nullptr;
    tlb_key_ = key;
    tlb_page_ = const_cast<Page*>(&it->second);
    return tlb_page_;
  }
  void reset_tlb() {
    tlb_key_ = kNoPage;
    tlb_page_ = nullptr;
  }

  std::unordered_map<uint32_t, Page> pages_;
  mutable uint32_t tlb_key_ = kNoPage;
  mutable Page* tlb_page_ = nullptr;
};

}  // namespace dim::mem
