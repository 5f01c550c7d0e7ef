// WarpLdaSampler against the independent serial reference
// (tests/reference_sampler.h): Iterate() at every thread count and the grid
// path under plans that reach every span shape must reproduce the
// reference's assignments and topic counts bit for bit.
#include "reference_sampler.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_executor.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/partitioner.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 120;
  config.vocab_size = 250;
  config.num_topics = 6;
  config.mean_doc_length = 24;
  config.alpha = 0.1;
  config.seed = 91;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig TestConfig(bool asymmetric) {
  LdaConfig config = LdaConfig::PaperDefaults(12);
  config.seed = 4242;
  config.mh_steps = 3;
  if (asymmetric) {
    config.alpha_vector.assign(config.num_topics, 0.07);
    config.alpha_vector[0] = 1.5;  // a strong pull toward topic 0
    config.alpha_vector[5] = 0.3;
  }
  return config;
}

constexpr int kSweeps = 3;

class ReferenceOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(ReferenceOracleTest, IterateMatchesReferenceAtEveryThreadCount) {
  const Corpus corpus = TestCorpus();
  const LdaConfig config = TestConfig(GetParam());
  ReferenceWarpLda reference;
  reference.Init(corpus, config);
  std::vector<std::unique_ptr<WarpLdaSampler>> samplers;
  for (uint32_t threads : {1u, 2u, 3u, 4u}) {
    samplers.push_back(std::make_unique<WarpLdaSampler>(
        WarpLdaOptions{.num_threads = threads}));
    samplers.back()->Init(corpus, config);
  }
  ASSERT_EQ(samplers[0]->Assignments(), reference.Assignments());
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    reference.Iterate();
    for (size_t i = 0; i < samplers.size(); ++i) {
      samplers[i]->Iterate();
      ASSERT_EQ(samplers[i]->Assignments(), reference.Assignments())
          << "threads " << i + 1 << " sweep " << sweep;
      ASSERT_EQ(samplers[i]->topic_counts(), reference.topic_counts());
    }
  }
}

TEST_P(ReferenceOracleTest, GridPlansMatchReference) {
  const Corpus corpus = TestCorpus();
  const LdaConfig config = TestConfig(GetParam());
  ReferenceWarpLda reference;
  reference.Init(corpus, config);
  for (int sweep = 0; sweep < kSweeps; ++sweep) reference.Iterate();

  // 1×1 fuses both whole-item spans; 1×4 only [wa, wp] (whole columns);
  // 4×1 only whole-row doc-accepts; 3×2 and 8×8 neither.
  struct NamedPlan {
    const char* name;
    SweepPlan plan;
  };
  const NamedPlan plans[] = {
      {"1x1", SweepPlan::Trivial()},
      {"1x4", MakeSweepPlan(corpus, 1, 4, PartitionStrategy::kGreedy)},
      {"4x1", MakeSweepPlan(corpus, 4, 1, PartitionStrategy::kGreedy)},
      {"3x2", MakeSweepPlan(corpus, 3, 2, PartitionStrategy::kGreedy)},
      {"8x8", MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy)},
  };
  for (const NamedPlan& np : plans) {
    for (uint32_t threads : {1u, 4u}) {
      WarpLdaSampler grid;
      grid.Init(corpus, config);
      ParallelExecutor executor(threads);
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        executor.RunSweep(grid, np.plan);
      }
      EXPECT_EQ(grid.Assignments(), reference.Assignments())
          << "plan " << np.name << " threads " << threads;
      EXPECT_EQ(grid.topic_counts(), reference.topic_counts())
          << "plan " << np.name << " threads " << threads;
    }
  }
}

// A word pass alone must keep every token and the c_k histogram consistent;
// the following doc pass completes exactly one Iterate() of the sampler.
TEST_P(ReferenceOracleTest, WordPassAlonePreservesTokenCount) {
  const Corpus corpus = TestCorpus();
  const LdaConfig config = TestConfig(GetParam());
  ReferenceWarpLda reference;
  reference.Init(corpus, config);
  reference.WordPass();
  auto histogram = [&](const std::vector<TopicId>& z) {
    std::vector<int64_t> h(config.num_topics, 0);
    for (TopicId t : z) ++h[t];
    return h;
  };
  ASSERT_EQ(reference.Assignments().size(), corpus.num_tokens());
  EXPECT_EQ(histogram(reference.Assignments()), reference.topic_counts());
  reference.DocPass();
  ASSERT_EQ(reference.Assignments().size(), corpus.num_tokens());
  EXPECT_EQ(histogram(reference.Assignments()), reference.topic_counts());

  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  sampler.Iterate();
  EXPECT_EQ(sampler.Assignments(), reference.Assignments());
}

INSTANTIATE_TEST_SUITE_P(Alpha, ReferenceOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& alpha) {
                           return alpha.param ? "Asymmetric" : "Symmetric";
                         });

}  // namespace
}  // namespace warplda
