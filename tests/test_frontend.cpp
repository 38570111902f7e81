#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "apps/pipeline.hpp"
#include "apps/workloads.hpp"
#include "frontend/recognize.hpp"
#include "patterns/named.hpp"
#include "redist/redistribution.hpp"

namespace {

using namespace optdm;
using frontend::AffineIndex;
using frontend::ArrayRef;
using frontend::DistributedArray;
using frontend::ForallAssign;
using frontend::recognize;
using frontend::recognize_redistribution;

DistributedArray array3d(const std::string& name,
                         std::array<std::int64_t, 3> extent,
                         std::array<redist::DimDistribution, 3> dims) {
  DistributedArray a;
  a.name = name;
  a.distribution.extent = extent;
  a.distribution.dims = dims;
  return a;
}

/// The GS grid: 64x64 elements row-distributed over 64 PEs (modeled as a
/// 3-D array with a unit third dimension).
DistributedArray gs_array() {
  return array3d("grid", {64, 64, 1},
                 {redist::DimDistribution{1, 1},
                  redist::DimDistribution{64, 1},
                  redist::DimDistribution{1, 1}});
}

TEST(Frontend, GsStencilRecognizesLinearNeighbors) {
  // forall (i,j) grid[i][j] = f(grid[i][j-1], grid[i][j+1]): the
  // row-distributed second dimension induces the GS boundary exchange.
  const auto grid = gs_array();
  ForallAssign stmt;
  stmt.label = "gs-sweep";
  stmt.lhs = ArrayRef{&grid, {}};
  stmt.rhs = {ArrayRef{&grid, {AffineIndex{0}, AffineIndex{-1}, AffineIndex{0}}},
              ArrayRef{&grid, {AffineIndex{0}, AffineIndex{+1}, AffineIndex{0}}}};
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);

  auto pattern = recognized.phase.pattern();
  auto expected = patterns::linear_neighbors(64);
  std::sort(pattern.begin(), pattern.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pattern, expected);
  // One boundary row of 64 words = 16 slots, same as the workload module.
  for (const auto& m : recognized.phase.messages) EXPECT_EQ(m.slots, 16);
  ASSERT_EQ(recognized.kinds.size(), 2u);
  EXPECT_EQ(recognized.kinds[0], "shift(0,-1,0)");
}

TEST(Frontend, PeriodicBoundaryAddsWraparound) {
  const auto grid = gs_array();
  ForallAssign stmt;
  stmt.lhs = ArrayRef{&grid, {}};
  stmt.rhs = {ArrayRef{&grid, {AffineIndex{0}, AffineIndex{+1}, AffineIndex{0}}}};
  stmt.boundary = ForallAssign::Boundary::kPeriodic;
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);
  const auto pattern = recognized.phase.pattern();
  // Shift by +1 with wraparound: PE j fetches from PE j+1, so all 64
  // connections (j+1 mod 64) -> j exist, including the wrap 0 -> 63.
  EXPECT_EQ(pattern.size(), 64u);
  EXPECT_NE(std::find(pattern.begin(), pattern.end(), core::Request{0, 63}),
            pattern.end());
}

TEST(Frontend, Stencil26MatchesPatternLibrary) {
  // A 32^3 array block-distributed 4x4x4; the 27-point box stencil with
  // periodic boundaries induces exactly the 26-neighbor pattern of P3M 5.
  const auto mesh = array3d("mesh", {32, 32, 32},
                            {redist::DimDistribution{4, 8},
                             redist::DimDistribution{4, 8},
                             redist::DimDistribution{4, 8}});
  ForallAssign stmt;
  stmt.lhs = ArrayRef{&mesh, {}};
  stmt.boundary = ForallAssign::Boundary::kPeriodic;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        stmt.rhs.push_back(ArrayRef{
            &mesh, {AffineIndex{dx}, AffineIndex{dy}, AffineIndex{dz}}});
      }
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);

  auto pattern = recognized.phase.pattern();
  auto expected = patterns::stencil26(4, 4, 4);
  std::sort(pattern.begin(), pattern.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pattern, expected);
}

TEST(Frontend, FaceMessagesLargerThanCornerMessages) {
  const auto mesh = array3d("mesh", {32, 32, 32},
                            {redist::DimDistribution{4, 8},
                             redist::DimDistribution{4, 8},
                             redist::DimDistribution{4, 8}});
  ForallAssign face;
  face.lhs = ArrayRef{&mesh, {}};
  face.boundary = ForallAssign::Boundary::kPeriodic;
  face.rhs = {ArrayRef{&mesh, {AffineIndex{1}, AffineIndex{0}, AffineIndex{0}}}};
  ForallAssign corner = face;
  corner.rhs = {
      ArrayRef{&mesh, {AffineIndex{1}, AffineIndex{1}, AffineIndex{1}}}};
  const auto f = recognize(face, 1);
  const auto c = recognize(corner, 1);
  // Axis shift: every transfer is a full 8x8 face.
  for (const auto& m : f.phase.messages) EXPECT_EQ(m.slots, 64);
  // Diagonal shift: the ghost region decomposes into a 7x7 face strip
  // toward each face neighbor, 7x1 edges, and a single corner element.
  std::int64_t min_slots = 1 << 20, max_slots = 0;
  for (const auto& m : c.phase.messages) {
    min_slots = std::min(min_slots, m.slots);
    max_slots = std::max(max_slots, m.slots);
  }
  EXPECT_EQ(max_slots, 49);
  EXPECT_EQ(min_slots, 1);
}

TEST(Frontend, AlignedReferencesNeedNoCommunication) {
  const auto grid = gs_array();
  ForallAssign stmt;
  stmt.lhs = ArrayRef{&grid, {}};
  stmt.rhs = {ArrayRef{&grid, {}},
              ArrayRef{&grid, {AffineIndex{+5}, AffineIndex{0}, AffineIndex{0}}}};
  // Offset in the *undistributed* dimension stays on-PE too.
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);
  EXPECT_TRUE(recognized.phase.messages.empty());
}

TEST(Frontend, CrossArrayReferencesUseBothDistributions) {
  // B is column-distributed, A row-distributed: A[i][j] = B[i][j] is a
  // transpose-style exchange touching every PE pair in the 8x8 grids.
  const auto a = array3d("A", {64, 64, 1},
                         {redist::DimDistribution{8, 8},
                          redist::DimDistribution{1, 1},
                          redist::DimDistribution{1, 1}});
  const auto b = array3d("B", {64, 64, 1},
                         {redist::DimDistribution{1, 1},
                          redist::DimDistribution{8, 8},
                          redist::DimDistribution{1, 1}});
  ForallAssign stmt;
  stmt.lhs = ArrayRef{&a, {}};
  stmt.rhs = {ArrayRef{&b, {}}};
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);
  EXPECT_EQ(recognized.phase.messages.size(), 8u * 7u);
  for (const auto& m : recognized.phase.messages)
    EXPECT_EQ(m.slots, 8 * 8 / apps::kWordsPerSlot);
}

TEST(Frontend, RejectsMalformedStatements) {
  const auto grid = gs_array();
  ForallAssign no_lhs;
  EXPECT_THROW(recognize(no_lhs, 4), std::invalid_argument);

  ForallAssign shifted_lhs;
  shifted_lhs.lhs =
      ArrayRef{&grid, {AffineIndex{1}, AffineIndex{0}, AffineIndex{0}}};
  EXPECT_THROW(recognize(shifted_lhs, 4), std::invalid_argument);

  const auto small = array3d("small", {32, 64, 1},
                             {redist::DimDistribution{1, 1},
                              redist::DimDistribution{64, 1},
                              redist::DimDistribution{1, 1}});
  ForallAssign mismatched;
  mismatched.lhs = ArrayRef{&grid, {}};
  mismatched.rhs = {ArrayRef{&small, {}}};
  EXPECT_THROW(recognize(mismatched, 4), std::invalid_argument);
}

TEST(Frontend, RedistributionStatementMatchesPlanner) {
  const auto a = array3d("A", {64, 64, 64},
                         {redist::DimDistribution{4, 16},
                          redist::DimDistribution{4, 16},
                          redist::DimDistribution{4, 16}});
  const auto b = array3d("B", {64, 64, 64},
                         {redist::DimDistribution{1, 1},
                          redist::DimDistribution{1, 1},
                          redist::DimDistribution{64, 1}});
  const auto recognized =
      recognize_redistribution(b, a, apps::kWordsPerSlot);
  const auto plan =
      redist::plan_redistribution(a.distribution, b.distribution);
  EXPECT_EQ(recognized.phase.messages.size(), plan.transfers.size());
  EXPECT_EQ(recognized.kinds,
            std::vector<std::string>{"redistribution"});
}

TEST(Frontend, RecognizedGsPhaseCompilesLikeWorkloadGs) {
  // End to end: frontend-recognized GS == hand-written workload GS, both
  // through the compiler.
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const auto grid = gs_array();
  ForallAssign stmt;
  stmt.lhs = ArrayRef{&grid, {}};
  stmt.rhs = {ArrayRef{&grid, {AffineIndex{0}, AffineIndex{-1}, AffineIndex{0}}},
              ArrayRef{&grid, {AffineIndex{0}, AffineIndex{+1}, AffineIndex{0}}}};
  const auto recognized = recognize(stmt, apps::kWordsPerSlot);
  const auto execute = [&](const apps::CommPhase& phase) {
    return sim::simulate_compiled(
        pipeline.compile_phase(phase.pattern()).phase.schedule,
        phase.messages);
  };
  const auto via_frontend = execute(recognized.phase);
  const auto via_workload = execute(apps::gs_phase(64, 64));
  EXPECT_EQ(via_frontend.total_slots, via_workload.total_slots);
}

}  // namespace
