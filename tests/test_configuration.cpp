#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/linkset.hpp"
#include "core/schedule.hpp"
#include "topo/line.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::Configuration;
using core::LinkSet;
using core::make_path;
using core::Schedule;

TEST(LinkSetTest, InsertContainsErase) {
  LinkSet set(100);
  EXPECT_TRUE(set.empty());
  set.insert(3);
  set.insert(64);
  set.insert(99);
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.count(), 3);
  set.erase(64);
  EXPECT_FALSE(set.contains(64));
  EXPECT_EQ(set.count(), 2);
}

TEST(LinkSetTest, OutOfRangeThrows) {
  // Regression: `contains` used to silently return false for
  // out-of-universe ids while insert/erase threw — the same caller bug
  // (mixing networks) was loud or silent depending on the access path.
  // The policy is now uniformly strict.
  LinkSet set(10);
  EXPECT_THROW(set.insert(10), std::out_of_range);
  EXPECT_THROW(set.insert(-1), std::out_of_range);
  EXPECT_THROW(set.erase(10), std::out_of_range);
  EXPECT_THROW(set.erase(-1), std::out_of_range);
  EXPECT_THROW(set.contains(10), std::out_of_range);
  EXPECT_THROW(set.contains(-1), std::out_of_range);
  // In-universe queries are unaffected.
  set.insert(9);
  EXPECT_TRUE(set.contains(9));
  EXPECT_FALSE(set.contains(0));
}

TEST(LinkSetTest, EmptyUniverseContainsThrows) {
  LinkSet set;  // universe of 0 links: every id is out of universe
  EXPECT_THROW(set.contains(0), std::out_of_range);
}

TEST(LinkSetTest, IntersectsAndMerge) {
  LinkSet a(128), b(128);
  a.insert(5);
  a.insert(70);
  b.insert(71);
  EXPECT_FALSE(a.intersects(b));
  b.insert(70);
  EXPECT_TRUE(a.intersects(b));
  a.merge(b);
  EXPECT_TRUE(a.contains(71));
  a.subtract(b);
  EXPECT_FALSE(a.contains(70));
  EXPECT_TRUE(a.contains(5));
}

TEST(LinkSetTest, UniverseMismatchThrows) {
  // Regression: these used to truncate silently to the smaller word count,
  // so comparing paths from different networks produced garbage — e.g. two
  // sets over 100- and 200-link universes "intersected" iff the collision
  // happened to fall in the first 128 bits.
  LinkSet small(100), large(200);
  small.insert(70);
  large.insert(70);
  EXPECT_THROW(small.intersects(large), std::invalid_argument);
  EXPECT_THROW(large.intersects(small), std::invalid_argument);
  EXPECT_THROW(small.merge(large), std::invalid_argument);
  EXPECT_THROW(large.merge(small), std::invalid_argument);
  EXPECT_THROW(small.subtract(large), std::invalid_argument);
  EXPECT_THROW(large.subtract(small), std::invalid_argument);
  // Same universe still works.
  LinkSet same(100);
  same.insert(70);
  EXPECT_TRUE(small.intersects(same));
}

TEST(LinkSetTest, CrossNetworkPathsThrow) {
  // conflicts_with between paths routed on different networks is a caller
  // bug, not "no conflict".
  topo::LinearNetwork line(5);
  topo::TorusNetwork torus(4, 4);
  const auto on_line = make_path(line, {0, 2});
  const auto on_torus = make_path(torus, {0, 5});
  EXPECT_THROW((void)on_line.conflicts_with(on_torus), std::invalid_argument);
  Configuration config(line.link_count());
  EXPECT_THROW((void)config.accepts(on_torus), std::invalid_argument);
}

TEST(LinkSetTest, ClearEmpties) {
  LinkSet a(64);
  a.insert(0);
  a.insert(63);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0);
}

TEST(ConfigurationTest, AddRefusesConflicts) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  EXPECT_TRUE(config.add(make_path(net, {0, 2})));
  EXPECT_FALSE(config.add(make_path(net, {1, 3})));  // shares 1->2
  EXPECT_TRUE(config.add(make_path(net, {3, 4})));
  EXPECT_EQ(config.size(), 2u);
  EXPECT_EQ(config.validate(), std::nullopt);
}

// The pairwise scan `Configuration::validate` ran before its one-pass
// rewrite, kept as the oracle: the rewrite must give the same verdict, the
// same message and the same throw on every configuration.
std::string pairwise_verdict(const Configuration& config) {
  const auto& paths = config.paths();
  try {
    for (std::size_t i = 0; i < paths.size(); ++i)
      for (std::size_t j = i + 1; j < paths.size(); ++j)
        if (paths[i].conflicts_with(paths[j]))
          return "configuration conflict between (" +
                 std::to_string(paths[i].request.src) + "->" +
                 std::to_string(paths[i].request.dst) + ") and (" +
                 std::to_string(paths[j].request.src) + "->" +
                 std::to_string(paths[j].request.dst) + ")";
    return "valid";
  } catch (const std::invalid_argument& e) {
    return std::string("throws: ") + e.what();
  }
}

std::string verdict(const Configuration& config) {
  try {
    const auto err = config.validate();
    return err ? *err : "valid";
  } catch (const std::invalid_argument& e) {
    return std::string("throws: ") + e.what();
  }
}

/// Overwrites a member's occupancy behind the bookkeeping: the corruption
/// `validate` exists to catch, and one `add` alone can never produce.
void overwrite_occupancy(Configuration& config, std::size_t member,
                         LinkSet occupancy) {
  auto& paths = const_cast<std::vector<core::Path>&>(config.paths());
  paths[member].occupancy = std::move(occupancy);
}

TEST(ConfigurationTest, OnePassValidateMatchesPairwiseOracle) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(2024);
  int clashes = 0;
  int mismatches = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Configuration config(net.link_count());
    for (int attempt = 0; attempt < 40; ++attempt) {
      const auto src = static_cast<topo::NodeId>(rng.uniform(0, 63));
      const auto dst = static_cast<topo::NodeId>(rng.uniform(0, 63));
      if (src != dst) (void)config.add(make_path(net, {src, dst}));
    }
    const auto last = static_cast<std::int64_t>(config.size()) - 1;
    ASSERT_GE(last, 1);
    const auto pick = [&] { return static_cast<std::size_t>(rng.uniform(0, last)); };
    // Trial kinds: untouched; one or two members given another member's
    // links; a member moved to another network's link universe, alone or
    // after a clash.
    const int kind = trial % 5;
    for (int c = 0; c < (kind == 2 ? 2 : kind == 1 || kind == 4 ? 1 : 0); ++c) {
      const auto from = pick();
      const auto to = pick();
      if (from != to)
        overwrite_occupancy(config, to, config.paths()[from].occupancy);
    }
    if (kind >= 3) overwrite_occupancy(config, pick(), LinkSet(100));

    const auto expected = pairwise_verdict(config);
    EXPECT_EQ(verdict(config), expected) << "trial " << trial;
    clashes += expected.rfind("configuration conflict", 0) == 0;
    mismatches += expected.rfind("throws: ", 0) == 0;
  }
  // Every branch of the oracle was exercised.
  EXPECT_GT(clashes, 100);
  EXPECT_GT(mismatches, 50);
}

TEST(ConfigurationTest, AcceptsIsNonMutating) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  const auto path = make_path(net, {0, 2});
  EXPECT_TRUE(config.accepts(path));
  EXPECT_TRUE(config.accepts(path));  // still true: nothing was added
  config.add(path);
  EXPECT_FALSE(config.accepts(path));
}

TEST(ConfigurationTest, UsedLinksIsUnion) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  const auto a = make_path(net, {0, 1});
  const auto b = make_path(net, {3, 4});
  config.add(a);
  config.add(b);
  EXPECT_EQ(config.used_links().count(),
            a.occupancy.count() + b.occupancy.count());
}

TEST(ScheduleTest, AppendRejectsEmpty) {
  Schedule schedule;
  EXPECT_THROW(schedule.append(Configuration{}), std::invalid_argument);
  EXPECT_EQ(schedule.degree(), 0);
}

TEST(ScheduleTest, DegreeAndSlotLookup) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  Configuration c2(net.link_count());
  c2.add(make_path(net, {1, 3}));
  schedule.append(std::move(c1));
  schedule.append(std::move(c2));
  EXPECT_EQ(schedule.degree(), 2);
  EXPECT_EQ(schedule.connection_count(), 2u);
  EXPECT_EQ(schedule.slot_of({0, 2}), std::optional<int>(0));
  EXPECT_EQ(schedule.slot_of({1, 3}), std::optional<int>(1));
  EXPECT_EQ(schedule.slot_of({4, 0}), std::nullopt);
}

TEST(ScheduleTest, ValidateAgainstDetectsMissingRequest) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  schedule.append(std::move(c1));
  EXPECT_EQ(schedule.validate_against({{0, 2}}), std::nullopt);
  EXPECT_NE(schedule.validate_against({{0, 2}, {1, 3}}), std::nullopt);
  EXPECT_NE(schedule.validate_against({}), std::nullopt);
}

TEST(ScheduleTest, ValidateAgainstHandlesMultisets) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  Configuration c2(net.link_count());
  c2.add(make_path(net, {0, 2}));
  schedule.append(std::move(c1));
  schedule.append(std::move(c2));
  // Two scheduled instances require two pattern instances.
  EXPECT_NE(schedule.validate_against({{0, 2}}), std::nullopt);
  EXPECT_EQ(schedule.validate_against({{0, 2}, {0, 2}}), std::nullopt);
}

}  // namespace
