#include "mem/memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

namespace dim::mem {

Memory::Page& Memory::page_for(uint32_t addr) {
  if (Page* p = find_page(addr)) return *p;
  const uint32_t key = addr >> kPageBits;
  Page& page = pages_.emplace(key, Page(kPageSize, 0)).first->second;
  tlb_key_ = key;
  tlb_page_ = &page;
  return page;
}

uint8_t Memory::read8(uint32_t addr) const {
  const Page* p = find_page(addr);
  return p ? (*p)[addr & (kPageSize - 1)] : 0;
}

uint16_t Memory::read16(uint32_t addr) const {
  return static_cast<uint16_t>(read8(addr) | (read8(addr + 1) << 8));
}

uint32_t Memory::read32(uint32_t addr) const {
  // Fast path: whole word within one page.
  const Page* p = find_page(addr);
  const uint32_t off = addr & (kPageSize - 1);
  if (p && off + 4 <= kPageSize) {
    return static_cast<uint32_t>((*p)[off]) |
           (static_cast<uint32_t>((*p)[off + 1]) << 8) |
           (static_cast<uint32_t>((*p)[off + 2]) << 16) |
           (static_cast<uint32_t>((*p)[off + 3]) << 24);
  }
  return static_cast<uint32_t>(read16(addr)) | (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

void Memory::write8(uint32_t addr, uint8_t value) {
  page_for(addr)[addr & (kPageSize - 1)] = value;
}

void Memory::write16(uint32_t addr, uint16_t value) {
  write8(addr, static_cast<uint8_t>(value));
  write8(addr + 1, static_cast<uint8_t>(value >> 8));
}

void Memory::write32(uint32_t addr, uint32_t value) {
  Page& p = page_for(addr);
  const uint32_t off = addr & (kPageSize - 1);
  if (off + 4 <= kPageSize) {
    p[off] = static_cast<uint8_t>(value);
    p[off + 1] = static_cast<uint8_t>(value >> 8);
    p[off + 2] = static_cast<uint8_t>(value >> 16);
    p[off + 3] = static_cast<uint8_t>(value >> 24);
    return;
  }
  write16(addr, static_cast<uint16_t>(value));
  write16(addr + 2, static_cast<uint16_t>(value >> 16));
}

void Memory::write_block(uint32_t addr, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) write8(addr + static_cast<uint32_t>(i), data[i]);
}

std::vector<uint8_t> Memory::read_block(uint32_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) out[i] = read8(addr + static_cast<uint32_t>(i));
  return out;
}

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr size_t kWord = sizeof(uint64_t);

// kZeroWordPow[j] = kFnvPrime^(8 * 2^j) mod 2^64. A zero byte leaves
// FNV-1a's xor unchanged, so a run of k zero words is the product of the
// entries for k's set bits. 2^13 words cover a whole page.
constexpr std::array<uint64_t, 14> kZeroWordPow = [] {
  std::array<uint64_t, 14> t{};
  uint64_t p = 1;
  for (size_t i = 0; i < kWord; ++i) p *= kFnvPrime;
  for (uint64_t& e : t) {
    e = p;
    p *= p;
  }
  return t;
}();
static_assert(Memory::kPageSize / kWord <= (1u << (kZeroWordPow.size() - 1)));

uint64_t skip_zero_words(uint64_t h, size_t words) {
  for (size_t j = 0; words != 0; ++j, words >>= 1) {
    if (words & 1) h *= kZeroWordPow[j];
  }
  return h;
}

uint64_t load_word(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// All-zero page, the stand-in for a page absent on one side.
const std::array<uint8_t, Memory::kPageSize> kZeroPage{};

}  // namespace

uint64_t Memory::content_hash() const {
  uint64_t h = kFnvBasis;
  for (const auto& [key, page] : pages_sorted()) {
    h ^= key;
    h *= kFnvPrime;
    const uint8_t* bytes = page->data();
    for (size_t off = 0; off < kPageSize;) {
      if (load_word(bytes + off) == 0) {
        size_t end = off + kWord;
        while (end < kPageSize && load_word(bytes + end) == 0) end += kWord;
        h = skip_zero_words(h, (end - off) / kWord);
        off = end;
        continue;
      }
      for (size_t k = 0; k < kWord; ++k, ++off) {
        h ^= bytes[off];
        h *= kFnvPrime;
      }
    }
  }
  return h;
}

std::vector<std::pair<uint32_t, const std::vector<uint8_t>*>> Memory::pages_sorted()
    const {
  std::vector<std::pair<uint32_t, const Page*>> out;
  out.reserve(pages_.size());
  for (const auto& [key, page] : pages_) out.emplace_back(key, &page);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Memory::restore_pages(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& pages) {
  for (const auto& [key, bytes] : pages) {
    if (bytes.size() != kPageSize) {
      throw std::invalid_argument("page " + std::to_string(key) + " has " +
                                  std::to_string(bytes.size()) + " bytes, expected " +
                                  std::to_string(kPageSize));
    }
  }
  pages_.clear();
  reset_tlb();
  for (const auto& [key, bytes] : pages) pages_[key] = bytes;
}

std::optional<uint32_t> Memory::first_difference(const Memory& other) const {
  const auto mine = pages_sorted();
  const auto theirs = other.pages_sorted();
  size_t i = 0;
  size_t j = 0;
  while (i < mine.size() || j < theirs.size()) {
    uint32_t key;
    const uint8_t* a = kZeroPage.data();
    const uint8_t* b = kZeroPage.data();
    if (j == theirs.size() || (i < mine.size() && mine[i].first < theirs[j].first)) {
      key = mine[i].first;
      a = mine[i++].second->data();
    } else if (i == mine.size() || theirs[j].first < mine[i].first) {
      key = theirs[j].first;
      b = theirs[j++].second->data();
    } else {
      key = mine[i].first;
      a = mine[i++].second->data();
      b = theirs[j++].second->data();
    }
    if (std::memcmp(a, b, kPageSize) == 0) continue;
    uint32_t off = 0;
    while (a[off] == b[off]) ++off;
    return (key << kPageBits) | off;
  }
  return std::nullopt;
}

}  // namespace dim::mem
