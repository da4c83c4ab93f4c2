#include "analysis/tables.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>

#include "analysis/properties.hpp"
#include "core/hyper_butterfly.hpp"
#include "topology/butterfly.hpp"
#include "topology/hyper_debruijn.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {
namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Joins `parts` by appending. `"literal" + std::string` prepends into the
/// right operand, which GCC 12 at -O3 flags with a false -Wrestrict.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

std::string opt(const std::optional<std::uint32_t>& v, bool exact = true) {
  if (!v) return "-";
  return exact ? num(*v) : cat("<=", num(*v));
}

/// Measured cells shared by both tables.
struct MeasuredColumn {
  TopologySummary s;
};

void fill_parameter_rows(ComparisonTable& t,
                         const std::vector<std::vector<std::string>>& formulas,
                         const std::vector<MeasuredColumn>& measured) {
  t.rows = {"Nodes",    "Edges",          "Regular",
            "Degree",   "Diameter",       "Fault-tolerance"};
  t.cells.assign(t.rows.size(),
                 std::vector<TableCell>(t.columns.size()));
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    const TopologySummary& s = measured[c].s;
    t.cells[0][c] = {formulas[c][0], num(s.nodes)};
    t.cells[1][c] = {formulas[c][1], num(s.edges)};
    t.cells[2][c] = {formulas[c][2], s.regular ? "yes" : "no"};
    t.cells[3][c] = {formulas[c][3],
                     s.regular ? num(s.min_degree)
                               : (num(s.min_degree) + ".." + num(s.max_degree))};
    t.cells[4][c] = {formulas[c][4], opt(s.diameter)};
    t.cells[5][c] = {formulas[c][5],
                     opt(s.connectivity, s.connectivity_exact)};
  }
}

void append_embedding_rows(ComparisonTable& t,
                           const std::vector<std::vector<std::string>>& rows) {
  const std::vector<std::string> names = {"Cycles", "Mesh", "Binary tree",
                                          "Mesh of trees"};
  for (std::size_t r = 0; r < names.size(); ++r) {
    t.rows.push_back(names[r]);
    std::vector<TableCell> line(t.columns.size());
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
      line[c] = {rows[c][r], ""};
    }
    t.cells.push_back(std::move(line));
  }
}

}  // namespace

ComparisonTable figure1_table(unsigned m, unsigned n, bool measure) {
  const unsigned mn = m + n;
  ComparisonTable t;
  t.columns = {cat("H(", num(mn), ")"), cat("B(", num(mn), ")"),
               cat("HD(", num(m), ",", num(n), ")"),
               cat("HB(", num(m), ",", num(n), ")")};

  // Paper formulas (Figure 1), instantiated at (m, n).
  auto p2 = [](unsigned e) { return std::uint64_t{1} << e; };
  std::vector<std::vector<std::string>> formulas = {
      // H_{m+n}
      {num(p2(mn)), num(std::uint64_t{mn} * p2(mn - 1)), "yes", num(mn),
       num(mn), num(mn)},
      // B_{m+n}
      {num(std::uint64_t{mn} * p2(mn)), num(std::uint64_t{mn} * p2(mn + 1)),
       "yes", "4", num(3 * mn / 2), "4"},
      // HD(m,n)
      {num(p2(mn)), cat("~", num(std::uint64_t{m + 4} * p2(mn - 1))), "no",
       num(m + 2) + ".." + num(m + 4), num(mn), num(m + 2)},
      // HB(m,n)
      {num(std::uint64_t{n} * p2(mn)),
       num(std::uint64_t{m + 4} * n * p2(mn - 1)), "yes", num(m + 4),
       num(m + (3 * n + 1) / 2), num(m + 4)}};

  std::vector<MeasuredColumn> measured(4);
  if (measure) {
    SummaryOptions vt;
    vt.vertex_transitive = true;
    SummaryOptions general;
    measured[0].s = summarize(t.columns[0], Hypercube(mn).to_graph(), vt);
    measured[1].s = summarize(t.columns[1], Butterfly(mn).to_graph(), vt);
    measured[2].s =
        summarize(t.columns[2], HyperDeBruijn(m, n).to_graph(), general);
    measured[3].s =
        summarize(t.columns[3], HyperButterfly(m, n).to_graph(), vt);
  } else {
    for (auto& col : measured) col.s = TopologySummary{};
  }
  fill_parameter_rows(t, formulas, measured);

  // Embedding rows as stated in Figure 1.
  append_embedding_rows(
      t, {// H
          {"even cycles", "yes", cat("T(", num(mn - 1), ")"), "yes"},
          // B
          {"even cycles", "no", cat("T(", num(mn + 1), ")"), "yes"},
          // HD
          {"pancyclic", "yes", cat("T(", num(mn - 1), ")"), "yes"},
          // HB
          {"even cycles", "yes", cat("T(", num(mn - 1), ")"), "yes"}});
  return t;
}

ComparisonTable figure2_table(bool exact_diameters) {
  ComparisonTable t;
  t.columns = {"HB(3,8)", "HD(3,11)", "HD(6,8)"};

  // Paper values (Figure 2).
  std::vector<std::vector<std::string>> formulas = {
      {"16384", "57344", "yes", "7", "15", "7"},
      {"16384", "~57344", "no", "5..7", "14", "5"},
      {"16384", "~81920", "no", "8..10", "14", "8"}};

  std::vector<MeasuredColumn> measured(3);
  SummaryOptions vt;
  vt.vertex_transitive = true;
  SummaryOptions hd;
  hd.diameter_node_cap = exact_diameters ? 20000 : 0;
  measured[0].s = summarize("HB(3,8)", HyperButterfly(3, 8).to_graph(), vt);
  measured[1].s = summarize("HD(3,11)", HyperDeBruijn(3, 11).to_graph(), hd);
  measured[2].s = summarize("HD(6,8)", HyperDeBruijn(6, 8).to_graph(), hd);
  fill_parameter_rows(t, formulas, measured);

  append_embedding_rows(t, {{"even cycles", "yes", "T(10)", "MT(2^1,2^8)"},
                            {"pancyclic", "yes", "T(13)", "MT(2^1,2^10)"},
                            {"pancyclic", "yes", "T(13)", "MT(2^4,2^6)"}});
  return t;
}

void print_table(std::ostream& os, const ComparisonTable& table) {
  const int name_width = 16, cell_width = 22;
  os << std::left << std::setw(name_width) << "Parameter";
  for (const std::string& col : table.columns) {
    os << std::setw(cell_width) << col;
  }
  os << '\n';
  os << std::string(name_width + cell_width * table.columns.size(), '-')
     << '\n';
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    os << std::left << std::setw(name_width) << table.rows[r];
    for (const TableCell& cell : table.cells[r]) {
      std::string text = cell.formula;
      if (!cell.measured.empty()) {
        text += " | " + cell.measured;
      }
      os << std::setw(cell_width) << text;
    }
    os << '\n';
  }
}

}  // namespace hbnet
