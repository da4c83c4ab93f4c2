// The wrapped butterfly B_n (Section 2.1 of the paper), in both of the
// paper's vertex representations:
//
//  1. Classic: a vertex is <z, l> with an n-bit word z and a level
//     l in [0, n); <z,l> ~ <z',l'> iff l' = l+-1 (mod n) and z' equals z
//     except possibly at one level-determined bit.
//  2. Cayley (Vadapalli & Srimani): a vertex is a cyclic permutation of n
//     symbols t_1..t_n in lexicographic order, each possibly complemented,
//     identified by its permutation index PI (number of left shifts from the
//     identity) and complementation index CI.
//
// We store a vertex canonically as (w, l): l = PI, and bit k of w = the
// complementation status of *symbol* t_{k+1} (not of position k). In these
// coordinates the four generators act as
//     g   : (w, l) -> (w,              l+1 mod n)
//     f   : (w, l) -> (w ^ 2^l,        l+1 mod n)
//     g^-1: (w, l) -> (w,              l-1 mod n)
//     f^-1: (w, l) -> (w ^ 2^(l-1 mod n), l-1 mod n)
// so cross edges over the level-cycle edge {k, k+1 mod n} flip word bit k --
// which is exactly the classic representation with z = w. The two paper
// representations are therefore literally the same object here; the
// label/PI/CI conversions are provided for completeness and tested as the
// isomorphism of Remark 2.
//
// Shortest routing: a route from (w,l) to (w',l') is a walk on the level
// cycle Z_n from l to l' traversing cycle edge k at least once for every bit
// k set in w^w'. plan_covering_walk() solves that covering-walk problem
// exactly in O(n) by lifting to the integer line and taking, for each right
// extreme, the least left extreme that a suffix minimum over the required
// residues allows; the result is both the true distance and an explicit
// optimal generator sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "graph/cayley.hpp"
#include "graph/graph.hpp"

namespace hbnet {

/// A wrapped-butterfly vertex: word (symbol complement mask) and level (PI).
struct BflyNode {
  std::uint32_t word = 0;
  std::uint32_t level = 0;
  friend bool operator==(const BflyNode&, const BflyNode&) = default;
};

/// The four butterfly generators, in the paper's notation.
enum class BflyGen : std::uint8_t { kG, kF, kGInv, kFInv };

/// Returns the paper name of a generator ("g", "f", "g-1", "f-1").
[[nodiscard]] const char* to_string(BflyGen gen);

/// A minimum cycle walk (covering or visiting) in closed form: lifted to the
/// integer line anchored at `start`, an optimal walk visits the interval
/// [-down, up] and ends at offset tau, sweeping to one extreme first and
/// then the other. That is three monotone runs -- run(i) unit steps in
/// direction dir(i) = -+dir(0) -- so a packet can carry the whole remaining
/// route in a few bytes (BflyWalk) and advance it in O(1) per hop.
struct CoveringWalkPlan {
  std::uint8_t up = 0;       // right extreme of the lifted interval
  std::uint8_t down = 0;     // left extreme (as a magnitude)
  std::int8_t tau = 0;       // final offset, tau == end - start (mod n)
  bool left_first = false;   // sweep to -down before +up
  [[nodiscard]] unsigned length() const {
    const int t = left_first ? -tau : tau;
    return static_cast<unsigned>(2 * (int{up} + int{down}) + t);
  }
  /// Steps per monotone run, in traversal order.
  [[nodiscard]] unsigned run(unsigned i) const {
    const int c = up, d = down;
    const int steps = left_first ? (i == 0 ? d : i == 1 ? d + c : c - tau)
                                 : (i == 0 ? c : i == 1 ? c + d : tau + d);
    return static_cast<unsigned>(steps);
  }
  /// Direction of run i (+1 = clockwise / g-direction).
  [[nodiscard]] int dir(unsigned i) const {
    const int first = left_first ? -1 : 1;
    return i == 1 ? -first : first;
  }
};

/// The rest of one optimal butterfly route, 8 bytes: the word bits still to
/// fix and the three monotone runs of its covering walk. Butterfly::walk()
/// plans it and Butterfly::step() advances it one generator at a time, so a
/// packet can carry its whole remaining route (sim/sharded.hpp).
struct BflyWalk {
  std::uint32_t word_diff = 0;      // word bits still to fix
  std::uint8_t run[3] = {0, 0, 0};  // steps left in each monotone run
  std::int8_t dir0 = 1;             // direction of run 0 (+1 = g-direction)

  [[nodiscard]] bool done() const { return (run[0] | run[1] | run[2]) == 0; }
  [[nodiscard]] unsigned length() const {
    return unsigned{run[0]} + run[1] + run[2];
  }
};

/// Minimum-length walk on the cycle Z_n (n in [1, 64]) from `start` to
/// `end` traversing every cycle edge k (joining levels k and k+1 mod n) with
/// bit k set in `required`, in O(n). Butterfly and hyper-butterfly routing
/// use it; tests pin it step for step against an O(n^2) enumeration of the
/// lifted intervals. Throws std::invalid_argument on n or a level out of
/// range.
[[nodiscard]] CoveringWalkPlan plan_covering_walk(unsigned n, unsigned start,
                                                  unsigned end,
                                                  std::uint64_t required);

/// The vertex-visiting variant: a minimum walk from `start` to `end` that
/// visits every position k with bit k set in `required` (the CCC router).
/// Same body as plan_covering_walk except that the right extreme c of the
/// lifted interval is itself visited, so residue c counts as reached.
[[nodiscard]] CoveringWalkPlan plan_visiting_walk(unsigned n, unsigned start,
                                                  unsigned end,
                                                  std::uint64_t required);

class Butterfly {
 public:
  /// Constructs B_n; the Cayley representation requires n >= 3 (Remark 1),
  /// n <= 26 keeps words in 32 bits with room for products.
  explicit Butterfly(unsigned n);

  [[nodiscard]] unsigned dimension() const { return n_; }
  [[nodiscard]] NodeId num_nodes() const { return n_ << n_; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(n_) << (n_ + 1);
  }
  [[nodiscard]] static constexpr unsigned degree() { return 4; }

  /// floor(3n/2): the diameter claimed in Remark 1. (Theorem 3 uses
  /// ceil(3n/2); tests pin the measured value, see EXPERIMENTS.md.)
  [[nodiscard]] unsigned diameter_formula() const { return 3 * n_ / 2; }

  /// Applies a generator to a vertex. Inline: the fault planner replays
  /// stored generator sequences through it hop by hop.
  [[nodiscard]] BflyNode apply(BflyNode v, BflyGen gen) const {
    const std::uint32_t up = v.level + 1 == n_ ? 0 : v.level + 1;
    const std::uint32_t down = v.level == 0 ? n_ - 1 : v.level - 1;
    switch (gen) {
      case BflyGen::kG:
        return {v.word, up};
      case BflyGen::kF:
        return {v.word ^ (1u << v.level), up};
      case BflyGen::kGInv:
        return {v.word, down};
      case BflyGen::kFInv:
        return {v.word ^ (1u << down), down};
    }
    return v;  // unreachable
  }

  /// Plans the optimal route u -> v as a walk for step(). One
  /// plan_covering_walk() call; inline because the sharded engine plans
  /// once per packet.
  [[nodiscard]] BflyWalk walk(BflyNode u, BflyNode v) const {
    const std::uint32_t diff = u.word ^ v.word;
    const CoveringWalkPlan p = plan_covering_walk(n_, u.level, v.level, diff);
    return {diff,
            {static_cast<std::uint8_t>(p.run(0)),
             static_cast<std::uint8_t>(p.run(1)),
             static_cast<std::uint8_t>(p.run(2))},
            static_cast<std::int8_t>(p.dir(0))};
  }

  /// Takes the next step of `w` from `cur`, advancing both, and returns the
  /// generator used. Precondition: !w.done(). Every butterfly and HB route
  /// is walked here (the sharded engine once per packet move), so the level
  /// wraps are compares, not modulo.
  BflyGen step(BflyNode& cur, BflyWalk& w) const {
    HBNET_DCHECK_MSG(!w.done(), "step past end of walk");
    unsigned i = 0;
    while (w.run[i] == 0) ++i;
    --w.run[i];
    const bool up = (w.dir0 > 0) != (i == 1);
    const std::uint32_t lvl = cur.level;
    const std::uint32_t down = lvl == 0 ? n_ - 1 : lvl - 1;
    // An upward step (g/f) crosses cycle edge cur.level, a downward one
    // (g^-1/f^-1) crosses (cur.level - 1) mod n; take the flipping
    // generator on the first crossing of a required edge.
    const std::uint32_t flip = w.word_diff & (1u << (up ? lvl : down));
    w.word_diff ^= flip;
    cur = {cur.word ^ flip, up ? (lvl + 1 == n_ ? 0 : lvl + 1) : down};
    return static_cast<BflyGen>((up ? 0 : 2) + (flip != 0 ? 1 : 0));
  }

  /// All four neighbors, in order g, f, g^-1, f^-1.
  [[nodiscard]] std::vector<BflyNode> neighbors(BflyNode v) const;

  /// Exact shortest-path distance.
  [[nodiscard]] unsigned distance(BflyNode u, BflyNode v) const;

  /// One optimal route as a generator sequence: walk(u, v) stepped to its
  /// end, which must be v.
  [[nodiscard]] std::vector<BflyGen> route(BflyNode u, BflyNode v) const;

  /// The same route as the full vertex sequence [u, ..., v].
  [[nodiscard]] std::vector<BflyNode> route_nodes(BflyNode u, BflyNode v) const;

  /// Dense index of a vertex: word * n + level.
  [[nodiscard]] NodeId index_of(BflyNode v) const {
    return static_cast<NodeId>(v.word) * n_ + v.level;
  }
  [[nodiscard]] BflyNode node_at(NodeId id) const {
    return {static_cast<std::uint32_t>(id / n_),
            static_cast<std::uint32_t>(id % n_)};
  }

  // --- Cayley-label view (Remark 2 isomorphism) -------------------------

  /// The symbol label of `v` as the paper writes it: n characters
  /// 'a','b','c',... (symbol t_1 = 'a'), uppercase = complemented, in
  /// left-to-right label order a_1 a_2 ... a_n.
  [[nodiscard]] std::string label(BflyNode v) const;

  /// Parses a label produced by label(); inverse of the above.
  [[nodiscard]] BflyNode from_label(const std::string& s) const;

  /// Permutation index (Definition 1) -- equals v.level.
  [[nodiscard]] unsigned permutation_index(BflyNode v) const { return v.level; }

  /// Complementation index (Definition 2): sum of w_j 2^(j-1) where w_j is
  /// the complementation bit of the j-th *label position*. Equals v.word
  /// rotated left by PI.
  [[nodiscard]] std::uint32_t complementation_index(BflyNode v) const;

  // --- Embedded structures ---------------------------------------------

  /// A cycle of length k*n + 2*k' (k >= 1, k' >= 0, k + k' <= 2^n) as a
  /// vertex sequence; the cycle family of Remark 9 / reference [7].
  [[nodiscard]] std::vector<BflyNode> cycle(unsigned k, unsigned k_prime) const;

  /// The natural complete binary tree of height n rooted at (root_word, 0):
  /// level d of the tree lives at butterfly level d; children follow g and f.
  /// Returns the 2^(n+1)-1 vertices in BFS order... but note levels wrap:
  /// valid as a subgraph tree only for depth <= n; this returns the T(n)
  /// witness (depth n-1 internal + leaves at level n-1->0 wrap excluded),
  /// see embeddings.cpp for the precise statement tested.
  [[nodiscard]] std::vector<BflyNode> natural_tree(std::uint32_t root_word,
                                                   unsigned depth) const;

  /// Cayley-graph view (Theorem 1 building block).
  [[nodiscard]] CayleySpec cayley_spec() const;

  /// Materialized CSR graph (word-major indexing via index_of()).
  [[nodiscard]] Graph to_graph() const;

 private:
  unsigned n_;
};

}  // namespace hbnet
