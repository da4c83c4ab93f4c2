// FIG1: regenerates Figure 1 of the paper -- the parameter comparison of
// hypercube, wrapped butterfly, hyper-deBruijn and hyper-butterfly -- for a
// sweep of (m,n), printing "paper formula | measured" cells computed from
// the constructed graphs.
#include <iostream>

#include "analysis/tables.hpp"

int main() {
  std::cout << "Figure 1: Hyper-deBruijn HD(m,n) and Hyper-Butterfly HB(m,n) "
               "compared\n"
            << "(cells are: paper formula | measured on constructed graph)\n";
  for (auto [m, n] : {std::pair{2u, 3u}, std::pair{2u, 4u}, std::pair{3u, 4u},
                      std::pair{3u, 5u}, std::pair{4u, 5u}}) {
    std::cout << "\n=== m=" << m << ", n=" << n << " ===\n";
    hbnet::print_table(std::cout, hbnet::figure1_table(m, n));
  }
  std::cout << "\nNotes:\n"
            << " * HD edges: the paper's closed form ignores the de Bruijn\n"
            << "   self-loop/parallel-edge losses; measured is exact.\n"
            << " * B diameter: Remark 1 (floor(3n/2)); HB diameter formula\n"
            << "   is Theorem 3 (m + ceil(3n/2)) -- measured shows the\n"
            << "   butterfly part is floor(3n/2).\n"
            << " * Fault-tolerance: exact max-flow kappa on small instances,\n"
            << "   sampled upper bound ('<=' prefix = sampled) on large.\n";
  return 0;
}
