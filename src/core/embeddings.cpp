#include "core/embeddings.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace hbnet {
namespace {

using Cell = std::pair<std::uint32_t, std::uint32_t>;

/// Two-lane snake of length k across lane pair (r0, r1) along columns
/// 0..k/2-1.
std::vector<Cell> two_row_snake(std::uint32_t r0, std::uint32_t r1,
                                std::uint64_t k) {
  std::vector<Cell> cells;
  cells.reserve(k);
  const std::uint32_t t = static_cast<std::uint32_t>(k / 2);
  for (std::uint32_t c = 0; c < t; ++c) cells.emplace_back(r0, c);
  for (std::uint32_t c = t; c-- > 0;) cells.emplace_back(r1, c);
  return cells;
}

/// Serpentine over P row pairs: pair 0 spans all columns, pairs 1..P-2 span
/// columns 1..C-1, the last pair spans columns 1..t-1, and column 0 is the
/// return spine. Covers k = 2(P-1)C + 2t with t in [2, C].
std::vector<Cell> serpentine(std::uint32_t cols, std::uint32_t pairs,
                             std::uint32_t t) {
  std::vector<Cell> cells;
  // Row 0 rightward over all columns.
  for (std::uint32_t c = 0; c < cols; ++c) cells.emplace_back(0, c);
  // Row 1 leftward down to column 1.
  for (std::uint32_t c = cols - 1; c >= 1; --c) cells.emplace_back(1, c);
  // Middle pairs over columns 1..C-1.
  for (std::uint32_t p = 1; p + 1 < pairs; ++p) {
    std::uint32_t top = 2 * p, bottom = 2 * p + 1;
    for (std::uint32_t c = 1; c < cols; ++c) cells.emplace_back(top, c);
    for (std::uint32_t c = cols - 1; c >= 1; --c) cells.emplace_back(bottom, c);
  }
  // Last pair over columns 1..t-1.
  std::uint32_t top = 2 * (pairs - 1), bottom = top + 1;
  for (std::uint32_t c = 1; c < t; ++c) cells.emplace_back(top, c);
  for (std::uint32_t c = t - 1; c >= 1; --c) cells.emplace_back(bottom, c);
  // Spine: column 0 upward from the bottom row to row 1 (row 0 col 0 was
  // emitted first).
  for (std::uint32_t r = bottom; r >= 1; --r) cells.emplace_back(r, 0);
  return cells;
}

}  // namespace

std::vector<Cell> grid_snake_cycle(std::uint32_t rows, std::uint32_t cols,
                                   std::uint64_t k) {
  if (rows < 2 || rows % 2 != 0 || cols < 2) {
    throw std::invalid_argument("grid_snake_cycle: need even rows >= 2, cols >= 2");
  }
  if (k < 4 || k % 2 != 0 ||
      k > static_cast<std::uint64_t>(rows) * cols) {
    throw std::invalid_argument("grid_snake_cycle: invalid length k");
  }
  if (k <= 2 * cols) return two_row_snake(0, 1, k);
  if (cols == 2) {
    // Transposed two-lane snake down the two columns.
    std::vector<Cell> cells;
    const std::uint32_t t = static_cast<std::uint32_t>(k / 2);
    for (std::uint32_t r = 0; r < t; ++r) cells.emplace_back(r, 0);
    for (std::uint32_t r = t; r-- > 0;) cells.emplace_back(r, 1);
    return cells;
  }
  // k = 2(P-1)C + 2t with t in [2, C] when it exists; otherwise t would be
  // C+1 and we build k-2 (which lands on t = C) plus one bump.
  const std::uint64_t half = k / 2;
  std::uint64_t p1 = (half - 2) / cols;
  std::uint32_t t = static_cast<std::uint32_t>(half - p1 * cols);
  if (t <= cols) {
    const std::uint32_t pairs = static_cast<std::uint32_t>(p1) + 1;
    if (2 * pairs > rows) {
      throw std::logic_error("grid_snake_cycle: internal row overflow");
    }
    return serpentine(cols, pairs, t);
  }
  // Bump case: t == cols + 1. Build the cycle of length k-2 (which lands on
  // t' = cols) and divert the bottom-row step (bottom,2)->(bottom,1) through
  // the free row below it. pairs == 1 means the k-2 cycle is the plain
  // two-row snake.
  const std::uint32_t pairs = static_cast<std::uint32_t>(p1) + 1;
  if (2 * pairs + 1 > rows) {
    throw std::logic_error("grid_snake_cycle: bump row overflow");
  }
  std::vector<Cell> cells = (pairs == 1) ? two_row_snake(0, 1, k - 2)
                                         : serpentine(cols, pairs, cols);
  const std::uint32_t bottom = 2 * pairs - 1;
  std::vector<Cell> out;
  out.reserve(cells.size() + 2);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(cells[i]);
    if (cells[i] == Cell{bottom, 2} &&
        cells[(i + 1) % cells.size()] == Cell{bottom, 1}) {
      out.emplace_back(bottom + 1, 2);
      out.emplace_back(bottom + 1, 1);
    }
  }
  if (out.size() != k) {
    throw std::logic_error("grid_snake_cycle: bump insertion failed");
  }
  return out;
}

std::vector<HbNode> hb_even_cycle(const HyperButterfly& hb, std::uint64_t k) {
  if (k < 4 || k % 2 != 0 || k > hb.num_nodes()) {
    throw std::invalid_argument(
        "hb_even_cycle: k must be even in [4, n*2^(m+n)]");
  }
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  const Butterfly& bf = hb.butterfly();
  // Small cycles fit inside one hypercube layer.
  if (k <= (std::uint64_t{1} << m) && m >= 2) {
    std::vector<HbNode> cycle;
    for (CubeWord x : hb.hypercube().even_cycle(k)) {
      cycle.push_back({x, BflyNode{0, 0}});
    }
    return cycle;
  }
  // General: snake inside (Gray cycle rows) x (butterfly Hamiltonian cycle
  // columns). Rows: the full 2^m Gray cycle (even, >= 2); columns: the
  // n*2^n-vertex Hamiltonian butterfly cycle. Row count 2 (m = 1) is fine:
  // the snake never uses row-wrap edges, and rows 0,1 are cube-adjacent.
  const std::uint32_t rows = 1u << m;
  const std::vector<BflyNode> bcycle = bf.cycle(1u << n, 0);  // Hamiltonian
  const std::uint32_t cols = static_cast<std::uint32_t>(bcycle.size());
  std::vector<Cell> cells = grid_snake_cycle(rows, cols, k);
  std::vector<HbNode> cycle;
  cycle.reserve(cells.size());
  for (auto [r, c] : cells) {
    cycle.push_back({Hypercube::gray(r), bcycle[c]});
  }
  return cycle;
}

std::vector<std::vector<HbNode>> hb_torus(const HyperButterfly& hb,
                                          std::uint32_t a, std::uint32_t k,
                                          std::uint32_t k_prime) {
  const unsigned m = hb.cube_dimension();
  if (a < 4 || a % 2 != 0 || a > (1u << m)) {
    throw std::invalid_argument("hb_torus: row cycle length invalid");
  }
  const std::vector<CubeWord> rows = hb.hypercube().even_cycle(a);
  const std::vector<BflyNode> cols = hb.butterfly().cycle(k, k_prime);
  std::vector<std::vector<HbNode>> grid(a,
                                        std::vector<HbNode>(cols.size()));
  for (std::uint32_t r = 0; r < a; ++r) {
    for (std::uint32_t c = 0; c < cols.size(); ++c) {
      grid[r][c] = {rows[r], cols[c]};
    }
  }
  return grid;
}

std::vector<CubeWord> drt_in_hypercube(unsigned k) {
  if (k < 2 || k > 26) {
    throw std::invalid_argument("drt_in_hypercube: k in [2,26]");
  }
  // Indexing per make_double_rooted_tree: [0]=r1, [1]=r2, then left T(k-1)
  // heap, then right T(k-1) heap.
  std::vector<CubeWord> layout{0b00, 0b01, 0b10, 0b11};  // DRT(2) base
  for (unsigned dim = 3; dim <= k; ++dim) {
    const std::uint32_t sub_prev = (1u << (dim - 2)) - 1;  // T(dim-2) size
    const std::uint32_t sub_new = (1u << (dim - 1)) - 1;   // T(dim-1) size
    const CubeWord top = CubeWord{1} << (dim - 1);
    const CubeWord p1 = layout[0], p2 = layout[1];
    const CubeWord q2 = layout[2 + sub_prev];
    // psi: automorphism of H_{dim-1} fixing p2 and swapping p1 <-> q2.
    const CubeWord ei = p1 ^ p2, ej = q2 ^ p2;  // single-bit masks
    auto psi = [p2, ei, ej](CubeWord x) -> CubeWord {
      CubeWord y = x ^ p2;
      CubeWord bit_i = (y & ei) ? 1 : 0;
      CubeWord bit_j = (y & ej) ? 1 : 0;
      y &= ~(ei | ej);
      if (bit_i) y |= ej;
      if (bit_j) y |= ei;
      return y ^ p2;
    };
    auto mirror = [&](CubeWord x) { return top | psi(x); };

    std::vector<CubeWord> next(2u << (dim - 1));
    next[0] = p2;          // new r1 = old s2
    next[1] = top | p2;    // new r2 = mirrored old s2
    // Heap copy helper: copy a full heap of `size` nodes from src (with
    // transform) into dst_base; both sides use plain 0-based heap indexing.
    auto copy_heap = [](std::vector<CubeWord>& dst, std::uint32_t dst_base,
                        std::uint32_t dst_root,
                        const std::vector<CubeWord>& src,
                        std::uint32_t src_base, std::uint32_t size,
                        auto&& transform, auto&& self) -> void {
      // Copies src heap node src_i -> dst heap node dst_i recursively.
      struct Frame {
        std::uint32_t dst_i, src_i;
      };
      std::vector<Frame> stack{{dst_root, 0}};
      while (!stack.empty()) {
        auto [di, si] = stack.back();
        stack.pop_back();
        if (si >= size) continue;
        dst[dst_base + di] = transform(src[src_base + si]);
        stack.push_back({2 * di + 1, 2 * si + 1});
        stack.push_back({2 * di + 2, 2 * si + 2});
      }
      (void)self;
    };
    auto identity = [](CubeWord x) { return x; };

    // New left T(dim-1) heap at base 2: root = p1, left child subtree =
    // old left subtree (identity), right child subtree = mirror(old right).
    next[2 + 0] = p1;
    copy_heap(next, 2, 1, layout, 2, sub_prev, identity, nullptr);
    copy_heap(next, 2, 2, layout, 2 + sub_prev, sub_prev, mirror, nullptr);
    // New right T(dim-1) heap at base 2 + sub_new: root = mirror(p1),
    // left child subtree = mirror(old left), right = old right (identity).
    next[2 + sub_new + 0] = mirror(p1);
    copy_heap(next, 2 + sub_new, 1, layout, 2, sub_prev, mirror, nullptr);
    copy_heap(next, 2 + sub_new, 2, layout, 2 + sub_prev, sub_prev, identity,
              nullptr);
    layout = std::move(next);
  }
  return layout;
}

std::vector<CubeWord> tree_in_hypercube(unsigned h) {
  if (h < 1 || h > 25) {
    throw std::invalid_argument("tree_in_hypercube: h in [1,25]");
  }
  if (h == 1) return {0};  // single vertex
  std::vector<CubeWord> drt = drt_in_hypercube(h + 1);
  const std::uint32_t sub = (1u << h) - 1;
  return {drt.begin() + 2, drt.begin() + 2 + sub};  // left T(h) heap
}

std::vector<BflyNode> tree_in_butterfly(const Butterfly& bf, unsigned h,
                                        std::uint32_t root_word) {
  if (h < 1 || h > bf.dimension()) {
    throw std::invalid_argument("tree_in_butterfly: need 1 <= h <= n");
  }
  const std::uint32_t size = (1u << h) - 1;
  std::vector<BflyNode> out(size);
  for (std::uint32_t t = 0; t < size; ++t) {
    const std::uint32_t x = t + 1;  // 1-based heap id: leading 1 + path bits
    const unsigned depth = 31u - static_cast<unsigned>(std::countl_zero(x));
    std::uint32_t word = root_word;
    for (unsigned j = 0; j < depth; ++j) {
      // Path bit for step j (root-to-node) is bit (depth-1-j) of x.
      if ((x >> (depth - 1 - j)) & 1u) word ^= 1u << j;
    }
    out[t] = {word, depth};
  }
  return out;
}

std::vector<HbNode> tree_in_hb(const HyperButterfly& hb) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  const unsigned a = m - 1;  // cube tree T(m-1) in H_m
  const unsigned h = a + n - 1;  // resulting tree T(m+n-2)
  if (m < 2) {
    // With m = 1 there is no usable cube tree; fall back to the pure
    // butterfly tree T(n) lifted into cube layer 0.
    std::vector<HbNode> out;
    for (BflyNode b : tree_in_butterfly(hb.butterfly(), n)) {
      out.push_back({0, b});
    }
    return out;
  }
  const std::vector<CubeWord> ctree = tree_in_hypercube(a);
  const std::vector<BflyNode> btree = tree_in_butterfly(hb.butterfly(), n);
  const std::uint32_t size = (1u << h) - 1;
  std::vector<HbNode> out(size);
  for (std::uint32_t t = 0; t < size; ++t) {
    const std::uint32_t x = t + 1;
    const unsigned depth = 31u - static_cast<unsigned>(std::countl_zero(x));
    // First min(depth, a-1) steps walk the cube tree; the rest walk the
    // butterfly tree. Reconstruct the two heap indices from the path bits.
    std::uint32_t cube_heap = 0, bfly_heap = 0;
    for (unsigned j = 0; j < depth; ++j) {
      const std::uint32_t bit = (x >> (depth - 1 - j)) & 1u;
      if (j < a - 1) {
        cube_heap = 2 * cube_heap + 1 + bit;
      } else {
        bfly_heap = 2 * bfly_heap + 1 + bit;
      }
    }
    out[t] = {ctree[cube_heap], btree[bfly_heap]};
  }
  return out;
}

std::vector<HbNode> mesh_of_trees_in_hb(const HyperButterfly& hb, unsigned p,
                                        unsigned q) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  if (p < 1 || p > m - 2 || q < 1 || q > n - 1) {
    throw std::invalid_argument(
        "mesh_of_trees_in_hb: need 1 <= p <= m-2 and 1 <= q <= n-1");
  }
  // Lemma 4 route: MT(2^p, 2^q) subset of T(p+1) x T(q+1); then
  // T(p+1) subset of H_{p+2} subset of H_m and T(q+1) subset of B_n.
  const std::vector<CubeWord> ctree = tree_in_hypercube(p + 1);
  const std::vector<BflyNode> btree = tree_in_butterfly(hb.butterfly(), q + 1);
  const std::uint32_t rows = 1u << p, cols = 1u << q;
  const std::uint32_t c_leaf_base = (1u << p) - 1;   // heap leaf offset
  const std::uint32_t b_leaf_base = (1u << q) - 1;
  const std::uint32_t total =
      rows * cols + rows * (cols - 1) + cols * (rows - 1);
  std::vector<HbNode> out(total);
  std::uint32_t idx = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      out[idx++] = {ctree[c_leaf_base + i], btree[b_leaf_base + j]};
    }
  }
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t t = 0; t < cols - 1; ++t) {
      out[idx++] = {ctree[c_leaf_base + i], btree[t]};
    }
  }
  for (std::uint32_t j = 0; j < cols; ++j) {
    for (std::uint32_t t = 0; t < rows - 1; ++t) {
      out[idx++] = {ctree[t], btree[b_leaf_base + j]};
    }
  }
  return out;
}

}  // namespace hbnet
