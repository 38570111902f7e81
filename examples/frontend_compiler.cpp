// End-to-end compiler walkthrough: from data-parallel source statements
// to switch register programs.
//
//   1. declare distributed arrays (HPF/CRAFT-style block-cyclic),
//   2. express the program's communication-bearing statements,
//   3. let the front end recognize the static patterns and volumes,
//   4. schedule each phase off-line (per-phase multiplexing degree),
//   5. lower to switch registers and predict per-phase times.
//
// Run:  ./frontend_compiler

#include <iostream>

#include "apps/pipeline.hpp"
#include "core/switch_program.hpp"
#include "frontend/recognize.hpp"
#include "topo/torus.hpp"
#include "util/table.hpp"

int main() {
  using namespace optdm;
  using frontend::AffineIndex;
  using frontend::ArrayRef;

  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);

  // -- 1. the arrays ------------------------------------------------------
  frontend::DistributedArray mesh;  // 64^3 mesh, 4x4x4 PE grid
  mesh.name = "mesh";
  mesh.distribution.extent = {64, 64, 64};
  for (auto& dim : mesh.distribution.dims) dim = {4, 16};

  frontend::DistributedArray slabs;  // same mesh, z-slab distribution
  slabs.name = "slabs";
  slabs.distribution.extent = {64, 64, 64};
  slabs.distribution.dims = {redist::DimDistribution{1, 1},
                             redist::DimDistribution{1, 1},
                             redist::DimDistribution{64, 1}};

  // -- 2./3. the statements and their recognized phases --------------------
  std::vector<frontend::RecognizedPhase> phases;

  frontend::ForallAssign stencil;  // 7-point Jacobi-style sweep
  stencil.label = "jacobi7";
  stencil.lhs = ArrayRef{&mesh, {}};
  stencil.boundary = frontend::ForallAssign::Boundary::kPeriodic;
  for (int d = 0; d < 3; ++d)
    for (int s = -1; s <= 1; s += 2) {
      ArrayRef ref{&mesh, {}};
      ref.index[static_cast<std::size_t>(d)] = AffineIndex{s};
      stencil.rhs.push_back(ref);
    }
  phases.push_back(frontend::recognize(stencil, apps::kWordsPerSlot));

  // FFT-style phase: repartition the mesh into z-slabs and back.
  phases.push_back(frontend::recognize_redistribution(slabs, mesh,
                                                      apps::kWordsPerSlot));
  phases.push_back(frontend::recognize_redistribution(mesh, slabs,
                                                      apps::kWordsPerSlot));

  // -- 4./5. schedule, lower, predict --------------------------------------
  std::cout << "compiled-communication plan on " << net.name() << "\n\n";
  util::Table table({"phase", "recognized as", "conns", "K", "registers",
                     "predicted slots"});
  for (const auto& recognized : phases) {
    const auto compiled =
        pipeline.compile_phase(recognized.phase.pattern()).phase;
    const core::SwitchProgram registers(net, compiled.schedule);
    if (const auto err = registers.verify(net, compiled.schedule)) {
      std::cerr << "register lowering failed: " << *err << '\n';
      return 1;
    }
    const auto run = sim::simulate_compiled(compiled.schedule,
                                            recognized.phase.messages);
    table.add_row(
        {recognized.phase.name,
         recognized.kinds.size() == 1 ? recognized.kinds.front()
                                      : std::to_string(recognized.kinds.size()) +
                                            " shifts",
         util::Table::fmt(
             static_cast<std::int64_t>(recognized.phase.messages.size())),
         util::Table::fmt(std::int64_t{compiled.schedule.degree()}),
         util::Table::fmt(static_cast<std::int64_t>(registers.setting_count())),
         util::Table::fmt(run.total_slots)});
  }
  table.print(std::cout);

  std::cout << "\nevery phase was recognized statically; at run time the "
               "program only loads the\nregister sets at phase boundaries — "
               "no control network, no reservation traffic\n";
  return 0;
}
