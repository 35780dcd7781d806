#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "bt/predictor.hpp"

namespace dim::bt {
namespace {

TEST(Predictor, StartsWeaklyNotTaken) {
  BimodalPredictor p;
  EXPECT_EQ(p.counter(0x100), 1);
  EXPECT_FALSE(p.predict(0x100));
  EXPECT_FALSE(p.saturated_direction(0x100).has_value());
}

TEST(Predictor, SaturatesUp) {
  BimodalPredictor p;
  p.update(0x100, true);
  EXPECT_EQ(p.counter(0x100), 2);
  EXPECT_TRUE(p.predict(0x100));
  EXPECT_FALSE(p.saturated_direction(0x100).has_value());
  p.update(0x100, true);
  EXPECT_EQ(p.counter(0x100), 3);
  ASSERT_TRUE(p.saturated_direction(0x100).has_value());
  EXPECT_TRUE(*p.saturated_direction(0x100));
  p.update(0x100, true);  // stays saturated
  EXPECT_EQ(p.counter(0x100), 3);
}

TEST(Predictor, SaturatesDown) {
  BimodalPredictor p;
  p.update(0x200, false);
  EXPECT_EQ(p.counter(0x200), 0);
  ASSERT_TRUE(p.saturated_direction(0x200).has_value());
  EXPECT_FALSE(*p.saturated_direction(0x200));
  p.update(0x200, false);
  EXPECT_EQ(p.counter(0x200), 0);
}

TEST(Predictor, HysteresisOnAlternation) {
  BimodalPredictor p;
  p.update(0x300, true);
  p.update(0x300, true);  // 3
  p.update(0x300, false);  // 2 — still predicts taken
  EXPECT_TRUE(p.predict(0x300));
  EXPECT_FALSE(p.saturated_direction(0x300).has_value());
  p.update(0x300, false);  // 1
  p.update(0x300, false);  // 0
  EXPECT_FALSE(p.predict(0x300));
  EXPECT_TRUE(p.saturated_direction(0x300).has_value());
}

TEST(Predictor, IndependentPerBranch) {
  BimodalPredictor p;
  p.update(0x100, true);
  p.update(0x100, true);
  EXPECT_TRUE(p.predict(0x100));
  EXPECT_FALSE(p.predict(0x104));
  EXPECT_EQ(p.tracked_branches(), 1u);
  p.update(0x104, false);
  EXPECT_EQ(p.tracked_branches(), 2u);
}

TEST(Predictor, Reset) {
  BimodalPredictor p;
  p.update(0x100, true);
  p.reset();
  EXPECT_EQ(p.counter(0x100), 1);
  EXPECT_EQ(p.tracked_branches(), 0u);
}

// Reference model: the predictor must behave exactly like a std::map of
// 2-bit counters, through table growth (far more than 64 branches, with
// PCs that collide in the table's low bits) and checkpoint round trips.
using Counters = std::vector<std::pair<uint32_t, uint8_t>>;

TEST(Predictor, MatchesMapModelThroughGrowthAndRestore) {
  std::mt19937 rng(12345);
  std::vector<uint32_t> pcs;
  for (uint32_t k = 0; k < 300; ++k) pcs.push_back(0x400000 + 4 * k);
  for (uint32_t k = 0; k < 40; ++k) pcs.push_back(0x10000u * k);  // same low bits
  pcs.push_back(0);
  pcs.push_back(0xFFFFFFFCu);

  BimodalPredictor p;
  std::map<uint32_t, uint8_t> model;
  auto model_counter = [&](uint32_t pc) {
    auto it = model.find(pc);
    return it == model.end() ? uint8_t{1} : it->second;
  };
  for (int step = 0; step < 20000; ++step) {
    const uint32_t pc = pcs[rng() % pcs.size()];
    const unsigned action = rng() % 100;
    if (action < 70) {
      const bool taken = (rng() & 1) != 0;
      p.update(pc, taken);
      uint8_t& c = model.try_emplace(pc, uint8_t{1}).first->second;
      if (taken && c < 3) ++c;
      if (!taken && c > 0) --c;
    } else if (action < 99) {
      ASSERT_EQ(p.counter(pc), model_counter(pc)) << "step " << step;
      ASSERT_EQ(p.predict(pc), model_counter(pc) >= 2);
    } else {
      // Checkpoint round trip through a fresh predictor and back.
      const auto exported = p.export_counters();
      ASSERT_EQ(exported, Counters(model.begin(), model.end()));
      BimodalPredictor copy;
      copy.restore_counters(exported);
      ASSERT_EQ(copy.export_counters(), exported);
      p.restore_counters(copy.export_counters());
    }
    ASSERT_EQ(p.tracked_branches(), model.size());
  }
  EXPECT_GT(model.size(), 64u);
  for (uint32_t pc : pcs) EXPECT_EQ(p.counter(pc), model_counter(pc));
  EXPECT_EQ(p.export_counters(), Counters(model.begin(), model.end()));
}

TEST(Predictor, RestoreKeepsTheLastDuplicateAndResetEmpties) {
  BimodalPredictor p;
  p.restore_counters({{0x100, 3}, {0x200, 0}, {0x100, 2}});
  EXPECT_EQ(p.tracked_branches(), 2u);
  EXPECT_EQ(p.counter(0x100), 2);
  EXPECT_EQ(p.counter(0x200), 0);
  p.reset();
  EXPECT_EQ(p.tracked_branches(), 0u);
  EXPECT_EQ(p.counter(0x100), 1);
  EXPECT_TRUE(p.export_counters().empty());
  p.update(0x100, true);
  EXPECT_EQ(p.counter(0x100), 2);
}

}  // namespace
}  // namespace dim::bt
