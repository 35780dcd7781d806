#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <random>
#include <vector>

#include "bt/rcache.hpp"

namespace dim::bt {
namespace {

rra::Configuration cfg(uint32_t pc, int ops = 5) {
  rra::Configuration c;
  c.start_pc = pc;
  c.ops.resize(static_cast<size_t>(ops));
  return c;
}

TEST(ReconfigCache, MissThenHit) {
  ReconfigCache rc(4);
  // A dispatch lookup of an absent PC returns nothing and counts nothing:
  // the system probes on every retired PC, and the miss counter must not
  // absorb the whole non-translated instruction stream. The translator
  // registers the genuine miss via note_miss().
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.misses(), 0u);
  rc.note_miss();
  rc.insert(cfg(0x100));
  rra::Configuration* c = rc.lookup(0x100);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start_pc, 0x100u);
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.misses(), 1u);
}

TEST(ReconfigCache, HitAndMissTotalsAreIndependent) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  // 3 counted hits, 2 translator-registered misses, any number of pure
  // probes: the totals reflect exactly the counted events.
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x100), nullptr);
  rc.note_miss();
  rc.note_miss();
  EXPECT_NE(rc.probe(0x100), nullptr);
  EXPECT_EQ(rc.probe(0x999), nullptr);
  EXPECT_EQ(rc.lookup(0x999), nullptr);
  EXPECT_EQ(rc.hits(), 3u);
  EXPECT_EQ(rc.misses(), 2u);
}

TEST(ReconfigCache, ProbeHasNoStatsOrRecencySideEffects) {
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  EXPECT_NE(rc.probe(0x100), nullptr);  // must NOT refresh recency
  EXPECT_EQ(rc.hits(), 0u);
  EXPECT_EQ(rc.misses(), 0u);
  rc.insert(cfg(0x300));  // evicts 0x100 (probe did not protect it)
  EXPECT_EQ(rc.probe(0x100), nullptr);
  EXPECT_NE(rc.probe(0x200), nullptr);
}

TEST(ReconfigCache, FifoEvictionOrder) {
  ReconfigCache rc(3);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.insert(cfg(0x300));
  // Hits must NOT refresh FIFO position (unlike LRU).
  EXPECT_NE(rc.lookup(0x100), nullptr);
  rc.insert(cfg(0x400));  // evicts 0x100, the oldest inserted
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x200), nullptr);
  EXPECT_EQ(rc.evictions(), 1u);
  rc.insert(cfg(0x500));  // evicts 0x200
  EXPECT_EQ(rc.lookup(0x200), nullptr);
  EXPECT_NE(rc.lookup(0x300), nullptr);
}

TEST(ReconfigCache, ReplacementKeepsFifoPosition) {
  ReconfigCache rc(2);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 5));
  rc.insert(cfg(0x100, 9));  // replaces in place (speculation extension)
  EXPECT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc.lookup(0x100)->ops.size(), 9u);
  rc.insert(cfg(0x300));  // 0x100 is still the oldest -> evicted
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x200), nullptr);
}

TEST(ReconfigCache, Flush) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.flush(0x100);
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.flushes(), 1u);
  EXPECT_EQ(rc.size(), 1u);
  rc.flush(0x999);  // flushing a non-entry is a no-op
  EXPECT_EQ(rc.flushes(), 1u);
  // After a flush, capacity is available again without eviction.
  rc.insert(cfg(0x300));
  rc.insert(cfg(0x400));
  rc.insert(cfg(0x500));
  EXPECT_EQ(rc.evictions(), 0u);
  EXPECT_EQ(rc.size(), 4u);
}

TEST(ReconfigCache, FifoOrderExposedForInspection) {
  ReconfigCache rc(8);
  rc.insert(cfg(3));
  rc.insert(cfg(1));
  rc.insert(cfg(2));
  ASSERT_EQ(rc.fifo_order().size(), 3u);
  EXPECT_EQ(rc.fifo_order()[0], 3u);
  EXPECT_EQ(rc.fifo_order()[1], 1u);
  EXPECT_EQ(rc.fifo_order()[2], 2u);
}

TEST(ReconfigCache, ZeroSlotsNeverStores) {
  ReconfigCache rc(0);
  rc.insert(cfg(0x100));
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.size(), 0u);
}

TEST(ReconfigCache, ZeroSlotsWritesNoWords) {
  // Regression: a zero-slot cache stores nothing, so it must report zero
  // words written — the software-BT cost model charges cycles per written
  // word, and used to bill configurations that were silently dropped.
  ReconfigCache rc(0);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 7));
  EXPECT_EQ(rc.words_written(), 0u);
  EXPECT_EQ(rc.insertions(), 0u);
}

TEST(ReconfigCache, WordsWrittenAccumulates) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 7));
  rc.insert(cfg(0x100, 9));  // replacement rewrites the entry: counted
  EXPECT_EQ(rc.words_written(), 21u);
}

TEST(ReconfigCache, LruHitsRefreshPosition) {
  ReconfigCache rc(3, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.insert(cfg(0x300));
  EXPECT_NE(rc.lookup(0x100), nullptr);  // refreshes 0x100
  rc.insert(cfg(0x400));                 // evicts 0x200, the least recent
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.lookup(0x200), nullptr);
  EXPECT_NE(rc.lookup(0x300), nullptr);
}

TEST(ReconfigCache, LruReplacementRefreshesRecency) {
  // Regression: under LRU, an in-place rewrite (speculation extension) is a
  // use of the entry and must move it to MRU. The stale-recency bug left the
  // rewritten entry at its old position, so the very configuration DIM had
  // just extended was the next eviction victim.
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 5));
  rc.insert(cfg(0x100, 9));  // rewrite: 0x100 becomes most recent
  EXPECT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc.peek(0x100)->ops.size(), 9u);
  rc.insert(cfg(0x300));  // 0x200 is now the least recent -> evicted
  EXPECT_NE(rc.peek(0x100), nullptr);
  EXPECT_EQ(rc.peek(0x200), nullptr);
  EXPECT_NE(rc.peek(0x300), nullptr);
}

TEST(ReconfigCache, FifoIsTheDefaultPolicy) {
  ReconfigCache rc(4);
  EXPECT_EQ(rc.policy(), Replacement::kFifo);
}

TEST(ReconfigCache, PeekHasNoSideEffects) {
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  EXPECT_NE(rc.peek(0x100), nullptr);  // must NOT refresh recency
  EXPECT_EQ(rc.hits(), 0u);
  rc.insert(cfg(0x300));  // evicts 0x100 (peek did not protect it)
  EXPECT_EQ(rc.peek(0x100), nullptr);
  EXPECT_NE(rc.peek(0x200), nullptr);
}

TEST(ReconfigCache, ContainsDoesNotCountStats) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  EXPECT_TRUE(rc.contains(0x100));
  EXPECT_FALSE(rc.contains(0x200));
  EXPECT_EQ(rc.hits(), 0u);
  EXPECT_EQ(rc.misses(), 0u);
}

// --- Revision stamping (loop residency) -------------------------------------
// Every cache write stamps a fresh monotone revision so an array-resident
// copy of an entry's old contents is detectable as stale at dispatch.

TEST(ReconfigCache, InsertStampsFreshMonotonicRevisions) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  const uint64_t r1 = rc.peek(0x100)->revision;
  const uint64_t r2 = rc.peek(0x200)->revision;
  EXPECT_NE(r1, 0u);
  EXPECT_GT(r2, r1);
  // A rewrite (speculative extension re-inserting the same start PC) is a
  // fresh stamp: the resident latch must see the entry change identity.
  rc.insert(cfg(0x100, 7));
  EXPECT_GT(rc.peek(0x100)->revision, r2);
  EXPECT_EQ(rc.counters().revision_counter, 3u);
}

TEST(ReconfigCache, EvictAndReinsertNeverReusesARevision) {
  ReconfigCache rc(1);
  rc.insert(cfg(0x100));
  const uint64_t r1 = rc.peek(0x100)->revision;
  rc.insert(cfg(0x200));  // evicts 0x100 under pressure
  rc.insert(cfg(0x100));  // re-translation gets a new identity
  EXPECT_GT(rc.peek(0x100)->revision, r1);
}

TEST(ReconfigCache, PreloadKeepsRevisionButAdvancesCounter) {
  // Warm starts must re-export byte-identically, so preload keeps the
  // serialized stamp — but later insertions may never reissue it.
  ReconfigCache rc(4);
  rra::Configuration warm = cfg(0x100);
  warm.revision = 7;
  ASSERT_TRUE(rc.preload(std::move(warm)));
  EXPECT_EQ(rc.peek(0x100)->revision, 7u);
  rc.insert(cfg(0x200));
  EXPECT_EQ(rc.peek(0x200)->revision, 8u);
}

TEST(ReconfigCache, ZeroSlotInsertBurnsNoRevision) {
  ReconfigCache rc(0);
  rc.insert(cfg(0x100));  // nothing stored, nothing stamped
  EXPECT_EQ(rc.counters().revision_counter, 0u);
}

// Reference model: every query (lookup / probe / contains / peek) must
// agree with a std::map of the stored entries plus an eviction-order list,
// across insert, replacement, flush, eviction, restore and preload, for
// both policies and several slot counts. Many of the PCs share a presence
// bucket (they differ only in bits above any bucket index).
void check_against_model(size_t slots, Replacement policy, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> pcs;
  for (uint32_t k = 0; k < 24; ++k) pcs.push_back(0x400000 + 4 * k);
  for (uint32_t k = 1; k < 16; ++k) pcs.push_back(0x400000 + 0x4000 * k);  // bucket mates
  pcs.push_back(0);
  pcs.push_back(0xFFFFFFFCu);

  ReconfigCache rc(slots, policy);
  std::map<uint32_t, uint32_t> model;  // pc -> end_pc token of the stored config
  std::list<uint32_t> order;           // front = next victim
  uint32_t token = 0;
  auto to_back = [&](uint32_t pc) {
    order.remove(pc);
    order.push_back(pc);
  };
  auto config = [&](uint32_t pc) {
    rra::Configuration c = cfg(pc, 1 + static_cast<int>(rng() % 6));
    c.end_pc = ++token;
    return c;
  };

  for (int step = 0; step < 4000; ++step) {
    const uint32_t pc = pcs[rng() % pcs.size()];
    const unsigned action = rng() % 100;
    if (action < 30) {
      rra::Configuration c = config(pc);
      const uint32_t t = c.end_pc;
      rc.insert(std::move(c));
      if (model.count(pc) != 0) {
        model[pc] = t;
        if (policy == Replacement::kLru) to_back(pc);
      } else if (slots > 0) {
        while (model.size() >= slots) {
          model.erase(order.front());
          order.pop_front();
        }
        model[pc] = t;
        order.push_back(pc);
      }
    } else if (action < 40) {
      rc.flush(pc);
      if (model.erase(pc) != 0) order.remove(pc);
    } else if (action < 60) {
      rra::Configuration* c = rc.lookup(pc);
      ASSERT_EQ(c != nullptr, model.count(pc) != 0) << "step " << step;
      if (c != nullptr) {
        ASSERT_EQ(c->end_pc, model[pc]);
        if (policy == Replacement::kLru) to_back(pc);
      }
    } else if (action < 63) {
      // Restore a random subset of the live entries (in eviction order).
      std::vector<rra::Configuration> kept;
      std::list<uint32_t> kept_order;
      for (const rra::Configuration& c : rc.export_entries()) {
        if (rng() % 3 != 0) {
          kept.push_back(c);
          kept_order.push_back(c.start_pc);
        } else {
          model.erase(c.start_pc);
        }
      }
      rc.restore(std::move(kept), rc.counters());
      order = kept_order;
    } else if (action < 66) {
      rra::Configuration c = config(pc);
      const uint32_t t = c.end_pc;
      const bool stored = rc.preload(std::move(c));
      const bool expect = model.size() < slots && model.count(pc) == 0;
      ASSERT_EQ(stored, expect) << "step " << step;
      if (stored) {
        model[pc] = t;
        order.push_back(pc);
      }
    }

    // Every PC answers every query as the model does.
    for (uint32_t q : pcs) {
      const auto it = model.find(q);
      const bool present = it != model.end();
      ASSERT_EQ(rc.contains(q), present) << "step " << step << " pc " << q;
      ASSERT_EQ(rc.probe(q) != nullptr, present);
      const rra::Configuration* c = rc.peek(q);
      ASSERT_EQ(c != nullptr, present);
      if (present) {
        ASSERT_EQ(c->end_pc, it->second);
      }
    }
    ASSERT_EQ(rc.size(), model.size());
    ASSERT_EQ(rc.fifo_order(), std::vector<uint32_t>(order.begin(), order.end()));
  }
}

TEST(ReconfigCache, FifoMatchesMapModel) {
  for (size_t slots : {0, 1, 4, 16, 64}) {
    SCOPED_TRACE(slots);
    check_against_model(slots, Replacement::kFifo, 7 + static_cast<uint32_t>(slots));
  }
}

TEST(ReconfigCache, LruMatchesMapModel) {
  for (size_t slots : {1, 4, 16, 64}) {
    SCOPED_TRACE(slots);
    check_against_model(slots, Replacement::kLru, 99 + static_cast<uint32_t>(slots));
  }
}

}  // namespace
}  // namespace dim::bt
