// The benchmark's request scripts are a function of the graph and the seed:
// the same seed gives byte-identical scripts, another seed different ones.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kcore.h"
#include "data/dblp.h"
#include "e2ebench/scripts.h"

namespace cexplorer {
namespace e2e {
namespace {

class ScriptsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpOptions options;
    options.num_authors = 3000;
    options.seed = 7;
    graph_ = new AttributedGraph(GenerateDblp(options).graph);
    cores_ = new std::vector<std::uint32_t>(CoreDecomposition(graph_->graph()));
  }

  static void TearDownTestSuite() {
    delete graph_;
    delete cores_;
  }

  static std::vector<std::string> Texts(std::uint64_t seed) {
    const std::vector<VertexId> population = MakePopulation(*graph_, *cores_);
    std::vector<std::string> texts;
    for (const BrowseStep& step :
         MakeBrowseScript(*graph_, population, seed, "s1", 200)) {
      texts.push_back(step.author_request);
      texts.push_back(step.search_request);
      texts.push_back(step.community_request);
      texts.push_back(std::to_string(step.profile_pick) + "/" +
                      std::to_string(step.explore_pick));
    }
    for (const SearchItem& item :
         MakeSearchScript(*graph_, population, seed, "s2", 200)) {
      texts.push_back(item.request);
    }
    for (const WriteOp& op : MakeWriteScript(*graph_, seed, "s3", 200)) {
      texts.push_back(op.request);
    }
    return texts;
  }

  static AttributedGraph* graph_;
  static std::vector<std::uint32_t>* cores_;
};

AttributedGraph* ScriptsTest::graph_ = nullptr;
std::vector<std::uint32_t>* ScriptsTest::cores_ = nullptr;

TEST_F(ScriptsTest, SameSeedGivesIdenticalScripts) {
  EXPECT_EQ(Texts(42), Texts(42));
}

TEST_F(ScriptsTest, OtherSeedGivesOtherScripts) {
  EXPECT_NE(Texts(42), Texts(43));
}

TEST_F(ScriptsTest, PopulationHasCommunitiesAndUniqueNames) {
  const std::vector<VertexId> population = MakePopulation(*graph_, *cores_);
  ASSERT_FALSE(population.empty());
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_GE((*cores_)[population[i]], kK);
    EXPECT_EQ(graph_->FindByName(graph_->Name(population[i])), population[i]);
    if (i > 0) {
      EXPECT_GE(graph_->graph().Degree(population[i - 1]),
                graph_->graph().Degree(population[i]));
    }
  }
}

TEST_F(ScriptsTest, WriterUndoesEveryEdgeBatch) {
  const std::vector<WriteOp> script = MakeWriteScript(*graph_, 5, "s1", 256);
  const std::vector<std::pair<VertexId, VertexId>>* pending = nullptr;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const WriteOp& op = script[i];
    switch (op.kind) {
      case WriteOp::Kind::kCompact:
        EXPECT_EQ((i + 1) % kCompactEvery, 0u);
        break;
      case WriteOp::Kind::kAddVertices:
        EXPECT_EQ((i + 1) % kVertexEvery, 0u);
        EXPECT_EQ(op.vertices.size(), 4u);
        break;
      case WriteOp::Kind::kAddEdges:
        EXPECT_EQ(pending, nullptr);
        EXPECT_TRUE(op.edges.size() == 1 || op.edges.size() == 16);
        for (const auto& [u, v] : op.edges) {
          EXPECT_NE(u, v);
          EXPECT_FALSE(graph_->graph().HasEdge(u, v));
        }
        pending = &op.edges;
        break;
      case WriteOp::Kind::kRemoveEdges:
        ASSERT_NE(pending, nullptr);
        EXPECT_EQ(op.edges, *pending);
        pending = nullptr;
        break;
    }
  }
}

TEST_F(ScriptsTest, EveryEighthSearchIsABatchOfEight) {
  const std::vector<VertexId> population = MakePopulation(*graph_, *cores_);
  const std::vector<SearchItem> script =
      MakeSearchScript(*graph_, population, 3, "s1", 64);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const bool batch = i % kBatchEvery == kBatchEvery - 1;
    EXPECT_EQ(script[i].batch, batch);
    EXPECT_EQ(script[i].queries.size(), batch ? kBatchSize : 1u);
    for (const QuerySpec& query : script[i].queries) {
      EXPECT_GE(query.keywords.size(), 1u);
      EXPECT_LE(query.keywords.size(), 3u);
    }
  }
}

}  // namespace
}  // namespace e2e
}  // namespace cexplorer
