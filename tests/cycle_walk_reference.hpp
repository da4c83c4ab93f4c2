// Test-only reference for the level-cycle walk kernel: the O(n^2)
// enumeration of every lifted interval [-d, c] that plan_covering_walk and
// plan_visiting_walk (topology/butterfly.hpp) evaluate in closed form. The
// library never includes this header; tests pin the kernel against it step
// for step.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "topology/butterfly.hpp"

namespace hbnet {

/// Minimum walk on Z_n from `start` to `end` as signed unit steps (+1 =
/// clockwise). With `visiting` false it crosses every cycle edge k (levels
/// k, k+1 mod n) with bit k set in `required`; with `visiting` true it
/// visits every position k with bit k set.
inline std::vector<int> reference_cycle_walk(unsigned n, unsigned start,
                                             unsigned end,
                                             std::uint64_t required,
                                             bool visiting) {
  // Lift Z_n to the integer line anchored at `start`. A walk tracing the
  // interval [-d, c] and ending at offset tau == end - start (mod n) costs
  // 2(c+d) - tau (left extreme first) or 2(c+d) + tau (right extreme
  // first). Offsets 0..c (vertices) or line edges 0..c-1 reach residues
  // below c+1 or c from the right; the left side reaches residues >= n-d.
  const int ni = static_cast<int>(n);
  const int delta =
      ((static_cast<int>(end) - static_cast<int>(start)) % ni + ni) % ni;
  // Each required position's residue relative to start.
  std::vector<int> residues;
  for (unsigned k = 0; k < n; ++k) {
    if ((required >> k) & 1) {
      residues.push_back(
          (static_cast<int>(k) - static_cast<int>(start) + ni) % ni);
    }
  }
  int best_cost = std::numeric_limits<int>::max();
  int best_c = 0, best_d = 0, best_tau = 0;
  bool best_left_first = true;
  for (int c = 0; c <= ni; ++c) {
    const int reach = visiting ? c + 1 : c;
    for (int d = 0; d <= ni; ++d) {
      bool covered = true;
      for (std::size_t i = 0; covered && i < residues.size(); ++i) {
        covered = residues[i] < reach || residues[i] >= ni - d;
      }
      if (!covered) continue;
      for (const int tau : {delta - ni, delta, delta + ni}) {
        if (tau < -d || tau > c) continue;
        for (const bool left_first : {true, false}) {
          const int cost = 2 * (c + d) + (left_first ? -tau : tau);
          if (cost < best_cost) {
            best_cost = cost;
            best_c = c;
            best_d = d;
            best_tau = tau;
            best_left_first = left_first;
          }
        }
      }
    }
  }
  std::vector<int> steps;
  auto emit = [&steps](int from, int to) {
    const int dir = to > from ? 1 : -1;
    for (int p = from; p != to; p += dir) steps.push_back(dir);
  };
  if (best_left_first) {
    emit(0, -best_d);
    emit(-best_d, best_c);
    emit(best_c, best_tau);
  } else {
    emit(0, best_c);
    emit(best_c, -best_d);
    emit(-best_d, best_tau);
  }
  return steps;
}

/// A plan's three monotone runs expanded into signed unit steps.
inline std::vector<int> plan_steps(const CoveringWalkPlan& plan) {
  std::vector<int> steps;
  for (unsigned i = 0; i < 3; ++i) {
    steps.insert(steps.end(), plan.run(i), plan.dir(i));
  }
  return steps;
}

}  // namespace hbnet
