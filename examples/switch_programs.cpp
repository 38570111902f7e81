// Switch-register programs: the artifact compiled communication actually
// emits.  Compiles a pattern, lowers the configuration set to per-switch
// crossbar register states (the paper's circular shift registers,
// Section 2), verifies the lowering realizes exactly the scheduled paths,
// and prints the program.
//
// Run:  ./switch_programs [--cols=4] [--rows=4]

#include <iostream>

#include "apps/pipeline.hpp"
#include "core/switch_program.hpp"
#include "patterns/named.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  topo::TorusNetwork net(static_cast<int>(args.get_int("cols", 4)),
                         static_cast<int>(args.get_int("rows", 4)));
  apps::Pipeline pipeline(net);

  // The paper's Fig. 1 flavor: a handful of cross-machine connections.
  const core::RequestSet pattern{{4, 1}, {5, 3}, {6, 10}, {8, 9}, {11, 2}};
  const auto compiled = pipeline.compile_phase(pattern).phase;

  std::cout << "pattern of " << pattern.size() << " requests on "
            << net.name() << " -> K = " << compiled.schedule.degree()
            << "\n\n";

  const core::SwitchProgram program(net, compiled.schedule);
  if (const auto err = program.verify(net, compiled.schedule)) {
    std::cerr << "register program failed verification: " << *err << '\n';
    return 1;
  }
  std::cout << "register program: " << program.setting_count()
            << " crossbar settings across " << program.switch_count()
            << " switches x " << program.slot_count()
            << " slots (verified)\n\n";
  program.print(net, std::cout);

  std::cout << "\nat run time each switch cycles its register through the "
               "slots above;\nno further control traffic is needed for "
               "this phase\n";
  return 0;
}
