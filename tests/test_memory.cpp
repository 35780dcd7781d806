#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/cache.hpp"
#include "mem/memory.hpp"

namespace dim::mem {
namespace {

TEST(Memory, ReadsZeroWhenUntouched) {
  Memory m;
  EXPECT_EQ(m.read8(0), 0u);
  EXPECT_EQ(m.read32(0x12345678), 0u);
  EXPECT_EQ(m.pages_allocated(), 0u);
}

TEST(Memory, ByteHalfWordRoundTrip) {
  Memory m;
  m.write8(100, 0xAB);
  m.write16(200, 0xCDEF);
  m.write32(300, 0x01234567);
  EXPECT_EQ(m.read8(100), 0xAB);
  EXPECT_EQ(m.read16(200), 0xCDEF);
  EXPECT_EQ(m.read32(300), 0x01234567u);
}

TEST(Memory, LittleEndianLayout) {
  Memory m;
  m.write32(0x1000, 0xAABBCCDD);
  EXPECT_EQ(m.read8(0x1000), 0xDD);
  EXPECT_EQ(m.read8(0x1001), 0xCC);
  EXPECT_EQ(m.read8(0x1002), 0xBB);
  EXPECT_EQ(m.read8(0x1003), 0xAA);
  EXPECT_EQ(m.read16(0x1000), 0xCCDD);
  EXPECT_EQ(m.read16(0x1002), 0xAABB);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  const uint32_t boundary = Memory::kPageSize;
  m.write32(boundary - 2, 0x11223344);
  EXPECT_EQ(m.read32(boundary - 2), 0x11223344u);
  EXPECT_EQ(m.read16(boundary - 2), 0x3344u);
  EXPECT_EQ(m.read16(boundary), 0x1122u);
  EXPECT_EQ(m.pages_allocated(), 2u);
}

TEST(Memory, BlockHelpers) {
  Memory m;
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  m.write_block(0x2000, data.data(), data.size());
  EXPECT_EQ(m.read_block(0x2000, 5), data);
  EXPECT_EQ(m.read8(0x2004), 5u);
}

TEST(Memory, ContentHashDetectsChanges) {
  Memory a, b;
  a.write32(0x1000, 42);
  b.write32(0x1000, 42);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.write8(0x5000, 1);
  EXPECT_NE(a.content_hash(), b.content_hash());
  b.write8(0x5000, 0);  // back to all-zero content in the same page
  EXPECT_EQ(a.content_hash(), b.content_hash());
  // Identical (zero) content in different pages hashes differently, because
  // the page address is mixed in.
  a.write8(5 * Memory::kPageSize, 0);
  b.write8(9 * Memory::kPageSize, 0);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(Memory, HashIsIterationOrderIndependent) {
  Memory a, b;
  a.write8(0x10000, 1);
  a.write8(0x50000, 2);
  b.write8(0x50000, 2);  // reversed allocation order
  b.write8(0x10000, 1);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

// Byte-serial FNV-1a 64, exactly as content_hash is defined: pages in
// ascending index order, each as its index (one 32-bit xor + multiply)
// followed by every byte of the page.
uint64_t reference_hash(const Memory& m) {
  std::map<uint32_t, const std::vector<uint8_t>*> ordered;
  for (const auto& [index, bytes] : m.pages_sorted()) ordered.emplace(index, bytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [index, bytes] : ordered) {
    h ^= index;
    h *= 0x100000001b3ull;
    for (const uint8_t b : *bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(MemoryHash, MatchesBytewiseFnv1aReference) {
  Memory m;
  EXPECT_EQ(m.content_hash(), 0xcbf29ce484222325ull);  // empty image
  EXPECT_EQ(m.content_hash(), reference_hash(m));

  m.write8(0x30000, 0);  // one allocated all-zero page
  EXPECT_EQ(m.content_hash(), reference_hash(m));

  for (const uint32_t off : {0u, 7u, 8u, Memory::kPageSize - 1}) {
    Memory single;
    single.write8(2 * Memory::kPageSize + off, 0x5A);
    EXPECT_EQ(single.content_hash(), reference_hash(single)) << "offset " << off;
    m.write8(0x30000 + off, static_cast<uint8_t>(off + 1));
    EXPECT_EQ(m.content_hash(), reference_hash(m)) << "offset " << off;
  }

  // Pages inserted out of order, including the highest page index, plus a
  // dense page with no zero runs to skip.
  m.write8(0xFFFF0000u + 3, 0x11);
  m.write32(0x00000010, 0xDEADBEEF);
  m.write8(0x70000 + Memory::kPageSize - 8, 0x22);
  std::mt19937 rng(7);
  for (uint32_t off = 0; off < Memory::kPageSize; off += 4) {
    m.write32(0x90000 + off, static_cast<uint32_t>(rng()) | 1u);
  }
  EXPECT_EQ(m.pages_allocated(), 5u);
  EXPECT_EQ(m.content_hash(), reference_hash(m));
}

TEST(Cache, DisabledIsFree) {
  Cache c(CacheParams{});  // enabled = false by default
  EXPECT_EQ(c.access(0x1234), 0u);
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, MissThenHit) {
  CacheParams p;
  p.enabled = true;
  p.size_bytes = 1024;
  p.line_bytes = 32;
  p.miss_penalty = 10;
  Cache c(p);
  EXPECT_EQ(c.access(0x100), 10u);
  EXPECT_EQ(c.access(0x104), 0u);  // same line
  EXPECT_EQ(c.access(0x11F), 0u);
  EXPECT_EQ(c.access(0x120), 10u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ConflictEviction) {
  CacheParams p;
  p.enabled = true;
  p.size_bytes = 64;  // 2 lines of 32
  p.line_bytes = 32;
  p.miss_penalty = 7;
  Cache c(p);
  EXPECT_EQ(c.access(0x000), 7u);
  EXPECT_EQ(c.access(0x040), 7u);  // same index, different tag -> evict
  EXPECT_EQ(c.access(0x000), 7u);  // miss again
}

TEST(Cache, Reset) {
  CacheParams p;
  p.enabled = true;
  Cache c(p);
  c.access(0);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_GT(c.access(0), 0u);  // cold again
}

TEST(Memory, FirstDifferenceIdenticalImages) {
  Memory a, b;
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  a.write32(0x1000, 0xDEADBEEF);
  b.write32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  EXPECT_EQ(b.first_difference(a), std::nullopt);
}

TEST(Memory, FirstDifferenceReportsLowestDifferingByte) {
  Memory a, b;
  a.write8(0x2003, 7);
  b.write8(0x2003, 9);
  a.write8(0x2001, 1);  // lower difference added later must still win
  EXPECT_EQ(a.first_difference(b), 0x2001u);
  EXPECT_EQ(b.first_difference(a), 0x2001u);
}

TEST(Memory, FirstDifferenceStraddlesPageBoundary) {
  // Last byte of page 0 equal, first byte of page 1 differs: the scan must
  // cross into the next page instead of stopping at the boundary.
  Memory a, b;
  a.write8(Memory::kPageSize - 1, 0x11);
  b.write8(Memory::kPageSize - 1, 0x11);
  a.write8(Memory::kPageSize, 0x22);
  b.write8(Memory::kPageSize, 0x33);
  EXPECT_EQ(a.first_difference(b), Memory::kPageSize);

  // A 32-bit write straddling the boundary differs only in its high bytes,
  // which land on the second page.
  Memory c, d;
  c.write32(Memory::kPageSize - 2, 0xAABBCCDD);
  d.write32(Memory::kPageSize - 2, 0x11BBCCDD);
  EXPECT_EQ(c.first_difference(d), Memory::kPageSize + 1);
}

TEST(Memory, FirstDifferenceTreatsAbsentPagesAsZero) {
  // One side allocated an all-zero page (write then overwrite with zero),
  // the other never touched it: the images hold the same bytes, so there
  // is no difference to report...
  Memory a, b;
  a.write8(0x30000, 0xFF);
  a.write8(0x30000, 0x00);
  EXPECT_EQ(a.pages_allocated(), 1u);
  EXPECT_EQ(b.pages_allocated(), 0u);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  EXPECT_EQ(b.first_difference(a), std::nullopt);
  // ...but the allocation set is part of the image identity, which the
  // hash does see (a run that touched a page is distinguishable).
  EXPECT_NE(a.content_hash(), b.content_hash());

  // An absent page on one side with real bytes on the other compares
  // against zeros.
  b.write8(0x50004, 0xAB);
  EXPECT_EQ(a.first_difference(b), 0x50004u);
}

TEST(Memory, FirstDifferenceInTheLastByteOfAPage) {
  Memory a, b;
  a.write32(0x40000, 0x01020304);
  b.write32(0x40000, 0x01020304);
  a.write8(0x40000 + Memory::kPageSize - 1, 1);
  b.write8(0x40000 + Memory::kPageSize - 1, 2);
  EXPECT_EQ(a.first_difference(b), 0x40000 + Memory::kPageSize - 1);
  EXPECT_EQ(b.first_difference(a), 0x40000 + Memory::kPageSize - 1);

  // A page present on one side only, whose only nonzero byte is its last.
  Memory c, d;
  c.write8(0x1000, 9);
  d.write8(0x1000, 9);
  d.write8(0x60000 + Memory::kPageSize - 1, 0x80);
  EXPECT_EQ(c.first_difference(d), 0x60000 + Memory::kPageSize - 1);
  EXPECT_EQ(d.first_difference(c), 0x60000 + Memory::kPageSize - 1);
}

TEST(Memory, PagesSortedAscendingAndSized) {
  Memory m;
  m.write8(3 * Memory::kPageSize + 5, 1);
  m.write8(0 * Memory::kPageSize + 9, 2);
  m.write8(7 * Memory::kPageSize + 1, 3);
  const auto pages = m.pages_sorted();
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0].first, 0u);
  EXPECT_EQ(pages[1].first, 3u);
  EXPECT_EQ(pages[2].first, 7u);
  for (const auto& [index, bytes] : pages) {
    ASSERT_NE(bytes, nullptr);
    EXPECT_EQ(bytes->size(), Memory::kPageSize);
  }
  EXPECT_EQ((*pages[1].second)[5], 1u);
}

TEST(Memory, RestorePagesReplacesTheImage) {
  Memory src;
  src.write32(0x1234, 0xCAFEBABE);
  src.write8(5 * Memory::kPageSize, 0x42);
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
  for (const auto& [index, bytes] : src.pages_sorted()) pages.emplace_back(index, *bytes);

  Memory dst;
  dst.write8(0x999, 0x77);  // must vanish: restore replaces, not merges
  dst.restore_pages(pages);
  EXPECT_EQ(dst.content_hash(), src.content_hash());
  EXPECT_EQ(dst.first_difference(src), std::nullopt);
  EXPECT_EQ(dst.read32(0x1234), 0xCAFEBABEu);
  EXPECT_EQ(dst.read8(0x999), 0u);

  // Wrong-sized pages are a deserialization bug, not a silent truncation.
  EXPECT_THROW(dst.restore_pages({{0u, std::vector<uint8_t>(100)}}), std::invalid_argument);
}

// --- Page TLB --------------------------------------------------------------
// Memory remembers the last page it found. These pin that a copy, a move
// or a restore never reads or writes through a page that belongs to
// another image.

TEST(MemoryTlb, CopyDoesNotShareTheSourcePage) {
  Memory a;
  a.write32(0x1000, 0x11111111);
  EXPECT_EQ(a.read32(0x1000), 0x11111111u);  // a's TLB now holds page 0
  Memory b(a);
  b.write32(0x1000, 0x22222222);
  EXPECT_EQ(a.read32(0x1000), 0x11111111u);
  EXPECT_EQ(b.read32(0x1000), 0x22222222u);

  Memory c;
  c.write8(0x1000, 0x33);
  EXPECT_EQ(c.read8(0x1000), 0x33);
  c = a;  // copy assignment drops c's old page
  c.write8(0x1000, 0x44);
  EXPECT_EQ(c.read32(0x1000), 0x11111144u);
  EXPECT_EQ(a.read32(0x1000), 0x11111111u);
}

TEST(MemoryTlb, MoveLeavesBothSidesConsistent) {
  Memory a;
  a.write32(0x2000, 0xAAAAAAAA);
  EXPECT_EQ(a.read32(0x2000), 0xAAAAAAAAu);
  Memory b(std::move(a));
  EXPECT_EQ(b.read32(0x2000), 0xAAAAAAAAu);
  // The moved-from image is empty and must not reach b's page.
  a = Memory();
  EXPECT_EQ(a.read32(0x2000), 0u);
  a.write32(0x2000, 0xBBBBBBBB);
  EXPECT_EQ(a.read32(0x2000), 0xBBBBBBBBu);
  EXPECT_EQ(b.read32(0x2000), 0xAAAAAAAAu);

  Memory c;
  c.write32(0x2000, 0xCCCCCCCC);
  EXPECT_EQ(c.read32(0x2000), 0xCCCCCCCCu);
  c = std::move(b);  // move assignment replaces c's page
  EXPECT_EQ(c.read32(0x2000), 0xAAAAAAAAu);
  c.write8(0x2000, 0x01);
  EXPECT_EQ(c.read32(0x2000), 0xAAAAAA01u);
  EXPECT_EQ(a.read32(0x2000), 0xBBBBBBBBu);
}

TEST(MemoryTlb, RestorePagesReplacesTheRememberedPage) {
  Memory m;
  m.write32(0x3000, 0x12345678);
  EXPECT_EQ(m.read32(0x3000), 0x12345678u);
  std::vector<uint8_t> page(Memory::kPageSize, 0);
  page[0x3000] = 0x9A;
  m.restore_pages({{0u, page}});
  EXPECT_EQ(m.read32(0x3000), 0x9Au);
  m.write8(0x3001, 0xBC);
  EXPECT_EQ(m.read32(0x3000), 0xBC9Au);
  m.restore_pages({});
  EXPECT_EQ(m.read32(0x3000), 0u);
  EXPECT_EQ(m.pages_allocated(), 0u);
}

TEST(MemoryTlb, WriteToAFreshPageAfterReadingItAbsent) {
  Memory m;
  m.write8(0x10, 1);                           // page 0 present
  EXPECT_EQ(m.read8(0x10), 1);
  EXPECT_EQ(m.read32(0x50000), 0u);            // page 5 absent
  EXPECT_EQ(m.page_data(0x50000), nullptr);
  m.write32(0x50000, 0xDEADBEEF);              // now allocated
  EXPECT_EQ(m.read32(0x50000), 0xDEADBEEFu);
  EXPECT_EQ(m.read8(0x10), 1);
  EXPECT_EQ(m.read32(0x50000), 0xDEADBEEFu);
  EXPECT_EQ(m.pages_allocated(), 2u);
}

TEST(MemoryTlb, PageCrossingWordAccesses) {
  Memory m;
  m.write32(0xFFFE, 0x44332211);  // bytes 0xFFFE..0x10001 span pages 0 and 1
  EXPECT_EQ(m.read8(0xFFFF), 0x22);
  EXPECT_EQ(m.read8(0x10000), 0x33);
  EXPECT_EQ(m.read32(0xFFFE), 0x44332211u);
  EXPECT_EQ(m.read16(0xFFFF), 0x3322);
  // The top word wraps to address 0.
  m.write32(0xFFFFFFFE, 0x88776655);
  EXPECT_EQ(m.read8(0xFFFFFFFF), 0x66);
  EXPECT_EQ(m.read8(0), 0x77);
  EXPECT_EQ(m.read32(0xFFFFFFFE), 0x88776655u);
  EXPECT_EQ(m.read32(0xFFFFFFFC), 0x66550000u);
}

// Random reads and writes of every width over a few pages (and the wrap
// at 2^32), checked byte for byte against a std::map, with copies, moves
// and restores mixed in.
TEST(MemoryTlb, MatchesByteMapModel) {
  std::mt19937 rng(2024);
  const uint32_t bases[] = {0x0, 0xFFF8, 0x20000, 0x7FFF0, 0xFFFFFFF0u};
  auto address = [&] { return bases[rng() % 5] + rng() % 24; };
  std::map<uint32_t, uint8_t> model;
  auto model_read = [&](uint32_t a, int width) {
    uint32_t v = 0;
    for (int b = 0; b < width; ++b) {
      const auto it = model.find(a + static_cast<uint32_t>(b));
      v |= static_cast<uint32_t>(it == model.end() ? 0 : it->second) << (8 * b);
    }
    return v;
  };

  Memory m;
  for (int step = 0; step < 20000; ++step) {
    const uint32_t a = address();
    const unsigned action = rng() % 100;
    if (action < 40) {
      const uint32_t v = rng();
      const int width = 1 << (rng() % 3);
      if (width == 1) m.write8(a, static_cast<uint8_t>(v));
      if (width == 2) m.write16(a, static_cast<uint16_t>(v));
      if (width == 4) m.write32(a, v);
      for (int b = 0; b < width; ++b) {
        model[a + static_cast<uint32_t>(b)] = static_cast<uint8_t>(v >> (8 * b));
      }
    } else if (action < 94) {
      ASSERT_EQ(m.read8(a), model_read(a, 1)) << "step " << step;
      ASSERT_EQ(m.read16(a), model_read(a, 2)) << "step " << step;
      ASSERT_EQ(m.read32(a), model_read(a, 4)) << "step " << step;
    } else if (action < 96) {
      Memory copy(m);
      m = copy;
    } else if (action < 98) {
      Memory moved(std::move(m));
      m = std::move(moved);
    } else {
      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
      for (const auto& [index, bytes] : m.pages_sorted()) pages.emplace_back(index, *bytes);
      Memory restored;
      restored.write8(a, 0x5A);  // replaced by the restore
      EXPECT_EQ(restored.read8(a), 0x5A);
      restored.restore_pages(pages);
      m = std::move(restored);
    }
  }
}

}  // namespace
}  // namespace dim::mem
