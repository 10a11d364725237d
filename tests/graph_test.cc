#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/connectivity.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace krcore {
namespace {

Graph Triangle() { return MakeGraph(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, BasicProperties) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, NeighborsSortedAndComplete) {
  Graph g = MakeGraph(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}});
  auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  std::vector<VertexId> expected{0, 1, 2, 4};
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(nbrs[i], expected[i]);
}

TEST(Graph, HasEdgeSymmetric) {
  Graph g = Triangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  Graph g2 = MakeGraph(3, {{0, 1}});
  EXPECT_FALSE(g2.HasEdge(0, 2));
}

TEST(GraphBuilder, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b(3);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, IsolatedVerticesAllowed) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  b.AddEdge(1, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(InducedSubgraph, MapsIdsAndKeepsOnlyInternalEdges) {
  //  path 0-1-2-3 plus edge 0-3
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  auto induced = BuildInducedSubgraph(g, {0, 1, 3});
  EXPECT_EQ(induced.graph.num_vertices(), 3u);
  // Local ids: 0->0, 1->1, 3->2. Edges {0,1} and {0,3} survive.
  EXPECT_EQ(induced.graph.num_edges(), 2u);
  EXPECT_TRUE(induced.graph.HasEdge(0, 1));
  EXPECT_TRUE(induced.graph.HasEdge(0, 2));
  EXPECT_FALSE(induced.graph.HasEdge(1, 2));
  EXPECT_EQ(induced.to_parent[2], 3u);
}

TEST(Connectivity, SubsetComponents) {
  // 0-1-2-3-4 path; subset {0,1,3,4} splits into two.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto comps = ComponentsOfSubset(g, {0, 1, 3, 4});
  ASSERT_EQ(comps.size(), 2u);
  std::sort(comps.begin(), comps.end());
  EXPECT_EQ(comps[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<VertexId>{3, 4}));
}

TEST(Connectivity, SubsetScratchRestored) {
  Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  std::vector<char> scratch(4, 0);
  auto comps = ComponentsOfSubset(g, {0, 1}, scratch);
  EXPECT_EQ(comps.size(), 1u);
  for (char c : scratch) EXPECT_EQ(c, 0);
}

TEST(Connectivity, IsConnectedSubset) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(IsConnectedSubset(g, {0, 1, 2}));
  EXPECT_FALSE(IsConnectedSubset(g, {0, 2}));  // 1 missing breaks the path
  EXPECT_TRUE(IsConnectedSubset(g, {3}));
  EXPECT_TRUE(IsConnectedSubset(g, {}));
}

TEST(GraphIo, RoundTrip) {
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {0, 5}});
  std::string path = std::filesystem::temp_directory_path() /
                     "krcore_graph_io_test.txt";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  Graph back;
  ASSERT_TRUE(ReadEdgeList(path, &back).ok());
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) EXPECT_TRUE(back.HasEdge(u, v));
  }
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsNotFound) {
  Graph g;
  Status s = ReadEdgeList("/nonexistent/definitely/absent.txt", &g);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(GraphIo, SparseIdsRemappedDensely) {
  std::string path = std::filesystem::temp_directory_path() /
                     "krcore_graph_io_sparse.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# comment line\n1000000 2000000\n2000000 3000000\n", f);
    fclose(f);
  }
  Graph g;
  ASSERT_TRUE(ReadEdgeList(path, &g).ok());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace krcore
