#include "core/warp_lda.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "eval/log_likelihood.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 150;
  config.vocab_size = 300;
  config.num_topics = 8;
  config.mean_doc_length = 30;
  config.alpha = 0.08;
  config.seed = 31;
  return GenerateLdaCorpus(config).corpus;
}

TEST(WarpLdaTest, AssignmentsCoverAllTokensWithinRange) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  auto z = sampler.Assignments();
  ASSERT_EQ(z.size(), corpus.num_tokens());
  for (TopicId topic : z) EXPECT_LT(topic, config.num_topics);
}

TEST(WarpLdaTest, IterateKeepsAssignmentsInRange) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  for (int i = 0; i < 5; ++i) sampler.Iterate();
  for (TopicId topic : sampler.Assignments()) {
    EXPECT_LT(topic, config.num_topics);
  }
}

TEST(WarpLdaTest, LikelihoodImprovesOverTraining) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  double initial = JointLogLikelihood(corpus, sampler.Assignments(),
                                      config.num_topics, config.alpha,
                                      config.beta);
  for (int i = 0; i < 30; ++i) sampler.Iterate();
  double trained = JointLogLikelihood(corpus, sampler.Assignments(),
                                      config.num_topics, config.alpha,
                                      config.beta);
  EXPECT_GT(trained, initial + 0.01 * std::abs(initial));
}

TEST(WarpLdaTest, DeterministicForSeedSingleThread) {
  Corpus corpus = TestCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.seed = 555;
  WarpLdaSampler a;
  WarpLdaSampler b;
  a.Init(corpus, config);
  b.Init(corpus, config);
  for (int i = 0; i < 3; ++i) {
    a.Iterate();
    b.Iterate();
  }
  EXPECT_EQ(a.Assignments(), b.Assignments());
}

TEST(WarpLdaTest, DifferentSeedsProduceDifferentChains) {
  Corpus corpus = TestCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.seed = 1;
  WarpLdaSampler a;
  a.Init(corpus, config);
  config.seed = 2;
  WarpLdaSampler b;
  b.Init(corpus, config);
  a.Iterate();
  b.Iterate();
  EXPECT_NE(a.Assignments(), b.Assignments());
}

TEST(WarpLdaTest, MultithreadedRunIsValidAndConverges) {
  Corpus corpus = TestCorpus();
  WarpLdaOptions options;
  options.num_threads = 4;
  WarpLdaSampler sampler(options);
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  double initial = JointLogLikelihood(corpus, sampler.Assignments(),
                                      config.num_topics, config.alpha,
                                      config.beta);
  for (int i = 0; i < 20; ++i) sampler.Iterate();
  auto z = sampler.Assignments();
  ASSERT_EQ(z.size(), corpus.num_tokens());
  for (TopicId topic : z) EXPECT_LT(topic, config.num_topics);
  double trained = JointLogLikelihood(corpus, z, config.num_topics,
                                      config.alpha, config.beta);
  EXPECT_GT(trained, initial);
}

TEST(WarpLdaTest, UsesMultipleTopicsAfterTraining) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  for (int i = 0; i < 10; ++i) sampler.Iterate();
  std::set<TopicId> used;
  for (TopicId topic : sampler.Assignments()) used.insert(topic);
  EXPECT_GT(used.size(), 3u);
}

TEST(WarpLdaTest, MhStepsSweepAllConverge) {
  Corpus corpus = TestCorpus();
  for (uint32_t m : {1u, 2u, 4u}) {
    WarpLdaSampler sampler;
    LdaConfig config = LdaConfig::PaperDefaults(16);
    config.mh_steps = m;
    sampler.Init(corpus, config);
    double initial = JointLogLikelihood(corpus, sampler.Assignments(),
                                        config.num_topics, config.alpha,
                                        config.beta);
    for (int i = 0; i < 20; ++i) sampler.Iterate();
    double trained = JointLogLikelihood(corpus, sampler.Assignments(),
                                        config.num_topics, config.alpha,
                                        config.beta);
    EXPECT_GT(trained, initial) << "M=" << m;
  }
}

TEST(WarpLdaTest, HandlesEmptyDocuments) {
  CorpusBuilder builder;
  builder.AddDocument(std::vector<WordId>{0, 1, 2});
  builder.AddDocument(std::vector<WordId>{});
  builder.AddDocument(std::vector<WordId>{2, 2});
  Corpus corpus = builder.Build();
  WarpLdaSampler sampler;
  sampler.Init(corpus, LdaConfig::PaperDefaults(4));
  for (int i = 0; i < 3; ++i) sampler.Iterate();
  EXPECT_EQ(sampler.Assignments().size(), 5u);
}

TEST(WarpLdaTest, SingleTopicDegenerates) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(1);
  sampler.Init(corpus, config);
  sampler.Iterate();
  for (TopicId topic : sampler.Assignments()) EXPECT_EQ(topic, 0u);
}

}  // namespace
}  // namespace warplda
