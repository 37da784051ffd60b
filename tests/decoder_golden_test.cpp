// Golden answers for the forbidden-set decoder.
//
// tests/data/decoder_golden.txt pins, for every (s, t, F) generated below,
// the distance and the size of the sketch graph H that the decoder
// assembled. A change to certification or sketch assembly that is meant to
// be a pure speed-up must reproduce every row exactly: equal sketch_edges
// shows that H itself is unchanged, not only the distance read off it.
//
// The fault sets cover |F| ∈ {0, 2, 8} with mixed vertex and edge faults,
// plus sets with exactly 64, 65 and 130 protected-ball centres, so that
// every width of a per-centre bitmask (one word, one word plus one bit,
// three words) is exercised.
//
// To re-record after an intended answer change:
//   FSDL_GOLDEN_RECORD=tests/data/decoder_golden.txt ./decoder_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/components.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

struct GraphCase {
  const char* name;
  bool faithful;
  std::function<Graph()> make;
};

/// Faithful labels hold nearly every vertex at n ≈ 250, so the faithful
/// graphs are smaller; the compact ones are large enough for 130 centres.
const std::vector<GraphCase>& graph_cases() {
  static const std::vector<GraphCase> cases = {
      {"grid", true, [] { return make_grid2d(12, 12); }},
      {"grid", false, [] { return make_grid2d(16, 16); }},
      {"rgg", true,
       [] {
         Rng rng(7);
         return largest_component_subgraph(make_unit_disk(150, 0.15, rng));
       }},
      {"rgg", false,
       [] {
         Rng rng(7);
         return largest_component_subgraph(make_unit_disk(260, 0.11, rng));
       }},
      {"tree", true, [] { return make_balanced_tree(3, 4); }},
      {"tree", false, [] { return make_balanced_tree(3, 5); }},
  };
  return cases;
}

/// |F| random faults, each an edge with probability 1/2.
FaultSet mixed_faults(const Graph& g, Rng& rng, unsigned count) {
  FaultSet f;
  while (f.size() < count) {
    const Vertex a = rng.vertex(g.num_vertices());
    if (rng.chance(0.5)) {
      const auto nb = g.neighbors(a);
      if (nb.empty()) continue;
      const Vertex b = nb[rng.below(nb.size())];
      if (!f.edge_faulty(a, b)) f.add_edge(a, b);
    } else if (!f.vertex_faulty(a)) {
      f.add_vertex(a);
    }
  }
  return f;
}

/// Mixed faults whose protected-ball centres (faulty vertices plus edge
/// endpoints) number exactly `centers`: every fault adds fresh centres only.
FaultSet faults_with_centers(const Graph& g, Rng& rng, unsigned centers) {
  FaultSet f;
  std::vector<bool> used(g.num_vertices(), false);
  unsigned count = 0;
  while (count < centers) {
    const Vertex a = rng.vertex(g.num_vertices());
    if (used[a]) continue;
    if (centers - count >= 2 && rng.chance(0.3)) {
      const auto nb = g.neighbors(a);
      if (nb.empty()) continue;
      const Vertex b = nb[rng.below(nb.size())];
      if (used[b]) continue;
      f.add_edge(a, b);
      used[a] = used[b] = true;
      count += 2;
    } else {
      f.add_vertex(a);
      used[a] = true;
      ++count;
    }
  }
  return f;
}

std::string dist_text(Dist d) {
  return d == kInfDist ? "inf" : std::to_string(d);
}

/// One golden row per query, in generation order.
std::vector<std::string> golden_rows() {
  std::vector<std::string> rows;
  for (const GraphCase& gc : graph_cases()) {
    const Graph g = gc.make();
    const Vertex n = g.num_vertices();
    const bool faithful = gc.faithful;
    const SchemeParams params =
        faithful ? SchemeParams::faithful(1.0) : SchemeParams::compact(1.0);
    const auto scheme = ForbiddenSetLabeling::build(g, params);
    const ForbiddenSetOracle oracle(scheme);
    const std::string case_name =
        std::string(gc.name) + (faithful ? "/faithful" : "/compact");

    Rng rng(1000 + n + (faithful ? 1 : 0));
    std::vector<std::pair<std::string, FaultSet>> sets;
    sets.emplace_back("F0", FaultSet{});
    for (int k = 0; k < 3; ++k) {
      sets.emplace_back("F2", mixed_faults(g, rng, 2));
    }
    for (int k = 0; k < 3; ++k) {
      sets.emplace_back("F8", mixed_faults(g, rng, 8));
    }
    for (const unsigned c : {64u, 65u, 130u}) {
      if (c + 50 > n) continue;  // leave room for fault-free endpoints
      sets.emplace_back("C" + std::to_string(c),
                        faults_with_centers(g, rng, c));
    }

    for (const auto& [set_name, faults] : sets) {
      const PreparedFaults prepared = oracle.prepare(faults);
      for (int q = 0; q < 8; ++q) {
        Vertex s = rng.vertex(n);
        Vertex t = rng.vertex(n);
        for (int retry = 0; retry < 8 && faults.vertex_faulty(s); ++retry) {
          s = rng.vertex(n);
        }
        for (int retry = 0; retry < 8 && faults.vertex_faulty(t); ++retry) {
          t = rng.vertex(n);
        }
        const QueryResult r = prepared.query(oracle.label(s), oracle.label(t));
        if (faults.size() <= 8) {
          // The one-shot path (a fresh prepare per query) must agree with
          // the prepared one; checked where a prepare is cheap.
          const QueryResult one_shot = oracle.query(s, t, faults);
          EXPECT_EQ(one_shot.distance, r.distance)
              << case_name << " " << set_name << " s=" << s << " t=" << t;
          EXPECT_EQ(one_shot.stats.sketch_edges, r.stats.sketch_edges)
              << case_name << " " << set_name << " s=" << s << " t=" << t;
        }
        std::ostringstream row;
        row << case_name << ' ' << set_name << ' ' << prepared.num_centers()
            << ' ' << s << ' ' << t << ' ' << dist_text(r.distance) << ' '
            << r.stats.sketch_vertices << ' ' << r.stats.sketch_edges;
        rows.push_back(row.str());
      }
    }
  }
  return rows;
}

TEST(DecoderGolden, AnswersAndSketchSizesMatchRecording) {
  const std::vector<std::string> rows = golden_rows();

  if (const char* out = std::getenv("FSDL_GOLDEN_RECORD");
      out != nullptr && *out != '\0') {
    std::ofstream file(out);
    ASSERT_TRUE(file) << "cannot write " << out;
    file << "# case preset fault_set centers s t distance sketch_vertices "
            "sketch_edges\n";
    for (const std::string& row : rows) file << row << '\n';
    GTEST_SKIP() << "recorded " << rows.size() << " rows to " << out;
  }

  std::ifstream file(FSDL_GOLDEN_PATH);
  ASSERT_TRUE(file) << "missing golden file " << FSDL_GOLDEN_PATH;
  std::vector<std::string> expected;
  for (std::string line; std::getline(file, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k], expected[k]) << "row " << k;
  }
}

TEST(DecoderGolden, CenterCountsCoverEveryMaskWidth) {
  const Graph g = make_grid2d(16, 16);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0));
  const ForbiddenSetOracle oracle(scheme);
  Rng rng(5);
  for (const unsigned c : {64u, 65u, 130u}) {
    EXPECT_EQ(oracle.prepare(faults_with_centers(g, rng, c)).num_centers(), c);
  }
}

}  // namespace
}  // namespace fsdl
