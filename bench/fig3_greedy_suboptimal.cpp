// Reproduces Fig. 3 of the paper: scheduling requests
// {(0,2), (1,3), (3,4), (2,4)} on a 5-node linear array.  The greedy
// algorithm, processing requests in the given order, needs 3 time slots;
// the optimum (found here both by the coloring heuristic and the exact
// branch-and-bound solver) is 2.

#include <iostream>

#include "sched/coloring.hpp"
#include "sched/exact.hpp"
#include "sched/greedy.hpp"
#include "topo/line.hpp"
#include "util/table.hpp"

int main() {
  using namespace optdm;

  topo::LinearNetwork net(5);
  const core::RequestSet requests{{0, 2}, {1, 3}, {3, 4}, {2, 4}};

  const auto by_greedy = sched::greedy(net, requests);
  const auto by_coloring = sched::coloring(net, requests);
  const auto by_exact = sched::exact(net, requests);

  std::cout << "Fig. 3 — greedy order-sensitivity on linear(5)\n"
            << "requests: (0,2) (1,3) (3,4) (2,4)\n\n";

  util::Table table({"algorithm", "multiplexing degree", "slot assignment"});
  const auto describe = [&](const core::Schedule& schedule) {
    std::string out;
    for (int slot = 0; slot < schedule.degree(); ++slot) {
      out += "slot" + std::to_string(slot + 1) + "{";
      bool first = true;
      for (const auto& path : schedule.configuration(slot).paths()) {
        if (!first) out += " ";
        first = false;
        out += '(';
        out += std::to_string(path.request.src);
        out += ',';
        out += std::to_string(path.request.dst);
        out += ')';
      }
      out += "} ";
    }
    return out;
  };

  table.add_row({"greedy (paper Fig. 3a)",
                 util::Table::fmt(std::int64_t{by_greedy.degree()}),
                 describe(by_greedy)});
  table.add_row({"coloring",
                 util::Table::fmt(std::int64_t{by_coloring.degree()}),
                 describe(by_coloring)});
  if (by_exact) {
    table.add_row({"exact (paper Fig. 3b optimum)",
                   util::Table::fmt(std::int64_t{by_exact->degree()}),
                   describe(*by_exact)});
  }
  table.print(std::cout);

  std::cout << "\npaper: greedy = 3 slots, optimal = 2 slots\n";
  return 0;
}
