#include "core/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 140;
  config.vocab_size = 260;
  config.num_topics = 6;
  config.mean_doc_length = 22;
  config.alpha = 0.1;
  config.seed = 91;
  return GenerateLdaCorpus(config).corpus;
}

LdaConfig TestConfig() {
  LdaConfig config = LdaConfig::PaperDefaults(10);
  config.seed = 4242;
  config.mh_steps = 2;
  return config;
}

std::vector<int64_t> Histogram(const std::vector<TopicId>& assignments,
                               uint32_t num_topics) {
  std::vector<int64_t> counts(num_topics, 0);
  for (TopicId t : assignments) ++counts[t];
  return counts;
}

TEST(ParallelExecutorTest, RunsEveryTaskExactlyOnceWithValidWorkerIds) {
  ParallelExecutor executor(4);
  EXPECT_EQ(executor.num_threads(), 4u);
  constexpr uint32_t kTasks = 223;  // more tasks than threads, odd count
  std::vector<std::atomic<uint32_t>> ran(kTasks);
  std::atomic<bool> worker_in_range{true};
  executor.Run(kTasks, [&](uint32_t worker, uint32_t task) {
    if (worker >= 4) worker_in_range = false;
    ran[task].fetch_add(1);
  });
  EXPECT_TRUE(worker_in_range);
  for (uint32_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1u) << "task " << t;
  }
  // The pool is reusable after a run.
  std::atomic<uint32_t> total{0};
  executor.Run(10, [&](uint32_t, uint32_t task) { total += task; });
  EXPECT_EQ(total.load(), 45u);
}

TEST(ParallelExecutorTest, SingleThreadRunsInlineAndInOrder) {
  ParallelExecutor executor(1);
  std::vector<uint32_t> order;
  executor.Run(8, [&](uint32_t worker, uint32_t task) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);  // no synchronization: must be the calling thread
  });
  std::vector<uint32_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelExecutorTest, FirstTaskExceptionPropagatesAndPoolSurvives) {
  ParallelExecutor executor(3);
  EXPECT_THROW(
      executor.Run(50,
                   [&](uint32_t, uint32_t task) {
                     if (task == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  std::atomic<uint32_t> count{0};
  executor.Run(50, [&](uint32_t, uint32_t) { ++count; });
  EXPECT_EQ(count.load(), 50u);
}

// Inline (1-thread) execution honors the same contract: the remaining tasks
// still run and the first exception is rethrown afterwards.
TEST(ParallelExecutorTest, SingleThreadExceptionRunsRemainingTasks) {
  ParallelExecutor executor(1);
  std::vector<char> ran(10, 0);
  EXPECT_THROW(
      executor.Run(10,
                   [&](uint32_t, uint32_t task) {
                     ran[task] = 1;
                     if (task == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 10);
}

// A sweep that throws mid-stage must not wedge the sampler: the driver
// aborts the sweep and the sampler stays fully usable.
TEST(ParallelSweepTest, AbortedSweepLeavesSamplerUsable) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  WarpLdaSampler sampler;
  sampler.Init(corpus, config);
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2);

  // Worker 5 is out of range for the default 1-worker scratch, so the first
  // RunBlock of ParallelExecutor-free manual driving throws mid-stage.
  sampler.BeginSweep(plan);
  sampler.RunBlock(0, 0);
  EXPECT_THROW(sampler.RunBlock(0, 1, 5), std::invalid_argument);
  sampler.AbortSweep();
  EXPECT_EQ(sampler.sweep_stage(), SweepStage::kDone);
  EXPECT_NO_THROW(sampler.Iterate());
  EXPECT_EQ(sampler.topic_counts(),
            Histogram(sampler.Assignments(), config.num_topics));

  // AbortSweep with no open sweep is a no-op.
  EXPECT_NO_THROW(sampler.AbortSweep());

  // After recovery, grid sweeps still track the serial trajectory exactly.
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  reference.Iterate();
  reference.Iterate();
  WarpLdaSampler fresh;
  fresh.Init(corpus, config);
  ParallelExecutor executor(2);
  executor.RunSweep(fresh, plan);
  executor.RunSweep(fresh, plan);
  EXPECT_EQ(reference.Assignments(), fresh.Assignments());
}

// The acceptance oracle of this PR: a multi-threaded grid sweep must
// reproduce the serial fused Iterate() bit for bit — same assignments AND
// same folded global topic counts.
TEST(ParallelSweepTest, OneAndEightThreadsMatchIterateOn4x4Plan) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid_one;
  grid_one.Init(corpus, config);
  WarpLdaSampler grid_eight;
  grid_eight.Init(corpus, config);
  ParallelExecutor one(1);
  ParallelExecutor eight(8);

  for (int sweep = 0; sweep < 3; ++sweep) {
    serial.Iterate();
    one.RunSweep(grid_one, plan);
    eight.RunSweep(grid_eight, plan);
    ASSERT_EQ(serial.Assignments(), grid_one.Assignments())
        << "1-thread grid diverged at sweep " << sweep;
    ASSERT_EQ(serial.Assignments(), grid_eight.Assignments())
        << "8-thread grid diverged at sweep " << sweep;
    // The per-worker ck-delta partitions must fold to the serial counts,
    // which in turn must equal the assignment histogram.
    ASSERT_EQ(serial.topic_counts(), grid_eight.topic_counts());
    ASSERT_EQ(grid_eight.topic_counts(),
              Histogram(grid_eight.Assignments(), config.num_topics));
  }
}

// Stress: many more blocks than threads, uneven rectangular grid, repeated
// sweeps reusing the same executor and plan indices.
TEST(ParallelSweepTest, MoreBlocksThanThreadsStress) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 7, 5, PartitionStrategy::kDynamic);

  WarpLdaSampler serial;
  serial.Init(corpus, config);
  WarpLdaSampler grid;
  grid.Init(corpus, config);
  ParallelExecutor executor(3);
  for (int sweep = 0; sweep < 3; ++sweep) {
    serial.Iterate();
    executor.RunSweep(grid, plan);
  }
  EXPECT_EQ(serial.Assignments(), grid.Assignments());
  EXPECT_EQ(serial.topic_counts(), grid.topic_counts());
}

TEST(ParallelSweepTest, TrainerGridExecutionMatchesFusedTraining) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();

  WarpLdaSampler fused;
  TrainOptions fused_options;
  fused_options.iterations = 4;
  fused_options.eval_every = 2;
  TrainResult fused_result = Train(fused, corpus, config, fused_options);

  WarpLdaSampler grid;
  TrainOptions grid_options = fused_options;
  grid_options.grid_execution = true;
  grid_options.sweep_plan = MakeSweepPlan(corpus, 3, 3);
  grid_options.sweep_threads = 4;
  TrainResult grid_result = Train(grid, corpus, config, grid_options);

  EXPECT_EQ(fused_result.assignments, grid_result.assignments);
  ASSERT_EQ(fused_result.history.size(), grid_result.history.size());
  for (size_t i = 0; i < fused_result.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(fused_result.history[i].log_likelihood,
                     grid_result.history[i].log_likelihood);
  }
}

TEST(ParallelSweepTest, TrainerGridExecutionRequiresGridSampler) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  auto sampler = CreateSampler("cgs");  // no GridSampler implementation
  ASSERT_NE(sampler, nullptr);
  TrainOptions options;
  options.iterations = 1;
  options.grid_execution = true;
  EXPECT_THROW(Train(*sampler, corpus, config, options),
               std::invalid_argument);
}

TEST(ParallelSweepTest, WorkerReservationIsEnforced) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  EXPECT_THROW(sampler.ReserveWorkers(2), std::logic_error);  // before Init

  WarpLdaOptions two_threads;
  two_threads.num_threads = 2;
  WarpLdaSampler initialized(two_threads);
  initialized.Init(corpus, TestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 2, 2);
  initialized.BeginSweep(plan);
  // At a stage barrier (BeginSweep opens one) the pool may grow — the
  // mid-sweep restore path relies on this; with blocks in flight it may not.
  initialized.ReserveWorkers(3);
  initialized.RunBlock(0, 0, 1);
  EXPECT_THROW(initialized.ReserveWorkers(8), std::logic_error);  // in flight
  // Scratch exists for 3 workers: worker 2 is usable, worker 3 is not.
  EXPECT_THROW(initialized.RunBlock(0, 1, 3), std::invalid_argument);
  initialized.RunBlock(0, 1, 2);
  initialized.RunBlock(1, 0, 1);
  initialized.RunBlock(1, 1, 0);
  initialized.EndStage();
  // Finish the sweep (how many barriers remain depends on stage fusion).
  while (initialized.sweep_stage() != SweepStage::kDone) {
    for (uint32_t i = 0; i < 2; ++i) {
      for (uint32_t j = 0; j < 2; ++j) initialized.RunBlock(i, j);
    }
    initialized.EndStage();
  }
  initialized.EndSweep();

  initialized.ReserveWorkers(8);  // between sweeps: fine
  ParallelExecutor executor(8);
  executor.RunSweep(initialized, plan);  // 8 workers on a 2x2 grid
  EXPECT_EQ(initialized.topic_counts(),
            Histogram(initialized.Assignments(), TestConfig().num_topics));
}

// Counts `"name": "<name>", "cat": "<cat>", "ph": "<ph>"` occurrences in a
// trace JSON string (the exact field order TraceRecorder::ToJson emits).
size_t CountTraceEvents(const std::string& json, const std::string& name,
                        const std::string& cat, char ph) {
  const std::string needle = "\"name\": \"" + name + "\", \"cat\": \"" + cat +
                             "\", \"ph\": \"" + ph + "\"";
  size_t count = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// A traced grid sweep emits one balanced span per stage span plus
// per-worker block spans, with every thread's B/E events forming a proper
// nesting. A 3x3 plan runs [word-accept], [word-propose + doc-accept],
// [doc-propose]: three spans named by their entry stage, three barriers,
// and one block pass per span.
TEST(ParallelSweepTest, RunSweepEmitsBalancedStageAndBlockSpans) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  sampler.Init(corpus, TestConfig());
  SweepPlan plan = MakeSweepPlan(corpus, 3, 3);
  ParallelExecutor executor(2);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Start();
  executor.RunSweep(sampler, plan);
  rec.Stop();
  const std::vector<obs::TraceEvent> events = rec.Snapshot();
  rec.Clear();

  std::map<uint32_t, int> depth;
  std::map<std::string, int> begins;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'B') {
      ++depth[event.tid];
      ++begins[event.name];
    } else if (event.phase == 'E') {
      --depth[event.tid];
      ASSERT_GE(depth[event.tid], 0) << "unbalanced spans on tid "
                                     << event.tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "open span left on tid " << tid;
  }
  // Each span appears exactly once per sweep...
  EXPECT_EQ(begins["word-accept"], 1);
  EXPECT_EQ(begins["word-propose"], 1);  // doc-accept runs inside this span
  EXPECT_EQ(begins["doc-accept"], 0);
  EXPECT_EQ(begins["doc-propose"], 1);
  EXPECT_EQ(begins["end-stage"], 3);
  // ... and every span ran all 9 blocks under a block span.
  EXPECT_EQ(begins["block"], 3 * 9);
}

// A grid-execution Train() with trace_path set writes a Chrome trace whose
// JSON contains one span per fused stage span per sweep plus per-worker
// block spans.
TEST(ParallelSweepTest, TrainWithTracePathWritesChromeTraceJson) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  WarpLdaSampler sampler;
  TrainOptions options;
  options.iterations = 3;
  options.eval_every = 0;
  options.grid_execution = true;
  options.sweep_plan = MakeSweepPlan(corpus, 2, 2);
  options.sweep_threads = 2;
  options.trace_path = testing::TempDir() + "/train_trace.json";
  Train(sampler, corpus, config, options);

  std::FILE* f = std::fopen(options.trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "trace file not written: " << options.trace_path;
  std::string json;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    json.append(buffer, n);
  }
  std::fclose(f);
  std::remove(options.trace_path.c_str());

  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  // One sweep span and one of each stage span per iteration.
  EXPECT_EQ(CountTraceEvents(json, "sweep", "trainer", 'B'),
            options.iterations);
  // The 2x2 plan's spans are [wa] | [wp, da] | [dp].
  for (const char* stage : {"word-accept", "word-propose", "doc-propose"}) {
    EXPECT_EQ(CountTraceEvents(json, stage, "stage", 'B'), options.iterations)
        << stage;
    EXPECT_EQ(CountTraceEvents(json, stage, "stage", 'E'), options.iterations)
        << stage;
  }
  EXPECT_EQ(CountTraceEvents(json, "doc-accept", "stage", 'B'), 0u);
  // 4 blocks per span, 3 spans, 3 sweeps.
  EXPECT_EQ(CountTraceEvents(json, "block", "executor", 'B'),
            options.iterations * 4u * 3u);
}

// ---------------------------------------------------------------------------
// Barrier-side builds on the pool. While ParallelExecutor::RunSweep /
// FinishSweep drive a sweep, the sampler's span-barrier builds (column and
// row count arenas, column alias tables) run as item-range tasks on the same
// executor; everywhere else they run inline. These tests pin that hand-off
// and prove the result is bit-identical at every width.

// Forwards the GridSampler protocol to a WarpLdaSampler, with optional hooks
// that observe or disturb it from inside block tasks and stage barriers.
class ForwardingSampler : public GridSampler {
 public:
  explicit ForwardingSampler(WarpLdaSampler& inner) : inner_(inner) {}

  void BeginSweep(const SweepPlan& plan) override {
    if (on_barrier) on_barrier();
    inner_.BeginSweep(plan);
  }
  void RunBlock(uint32_t doc_block, uint32_t word_block,
                uint32_t worker) override {
    if (on_block) on_block(worker);
    inner_.RunBlock(doc_block, word_block, worker);
  }
  void ReserveWorkers(uint32_t num_workers) override {
    inner_.ReserveWorkers(num_workers);
  }
  void EndStage() override {
    inner_.EndStage();
    if (on_barrier) on_barrier();
  }
  void EndSweep() override { inner_.EndSweep(); }
  void AbortSweep() override { inner_.AbortSweep(); }
  SweepStage sweep_stage() const override { return inner_.sweep_stage(); }

  std::function<void(uint32_t worker)> on_block;
  std::function<void()> on_barrier;

 private:
  WarpLdaSampler& inner_;
};

struct NamedPlanConfig {
  const char* name;
  SweepPlan plan;
  bool asymmetric_alpha;
};

std::vector<NamedPlanConfig> BarrierMatrixPlans(const Corpus& corpus) {
  return {
      {"trivial", SweepPlan::Trivial(), false},
      {"1x4", MakeSweepPlan(corpus, 1, 4, PartitionStrategy::kGreedy), false},
      {"4x1", MakeSweepPlan(corpus, 4, 1, PartitionStrategy::kGreedy), false},
      {"4x4", MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy), true},
      {"8x8", MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy), false},
  };
}

LdaConfig MatrixConfig(bool asymmetric_alpha) {
  LdaConfig config = TestConfig();
  if (asymmetric_alpha) {
    config.alpha_vector.assign(config.num_topics, 0.08);
    config.alpha_vector[0] = 1.4;
    config.alpha_vector[3] = 0.4;
  }
  return config;
}

// Every plan shape (trivial and 1x4/4x1 fuse both span kinds, 8x8 only
// [wp, da]) and 1/2/4/8 pool threads: pool-built
// arenas and alias tables must sample exactly like Iterate() and like the
// serial GridSampler::RunSweep, which builds everything inline.
TEST(ParallelSweepTest, PoolBarrierBuildsMatchIterateAndSerialRunSweep) {
  Corpus corpus = TestCorpus();
  constexpr int kSweeps = 3;
  for (const NamedPlanConfig& npc : BarrierMatrixPlans(corpus)) {
    const LdaConfig config = MatrixConfig(npc.asymmetric_alpha);
    WarpLdaSampler reference;
    reference.Init(corpus, config);
    std::vector<std::vector<TopicId>> expected_z;
    std::vector<std::vector<int64_t>> expected_ck;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      reference.Iterate();
      expected_z.push_back(reference.Assignments());
      expected_ck.push_back(reference.topic_counts());
    }
    WarpLdaSampler serial;
    serial.Init(corpus, config);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      serial.RunSweep(npc.plan);
      ASSERT_EQ(serial.Assignments(), expected_z[sweep]) << npc.name;
      ASSERT_EQ(serial.topic_counts(), expected_ck[sweep]) << npc.name;
    }
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      WarpLdaSampler pooled;
      pooled.Init(corpus, config);
      ParallelExecutor executor(threads);
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        executor.RunSweep(pooled, npc.plan);
        ASSERT_EQ(pooled.Assignments(), expected_z[sweep])
            << "plan " << npc.name << " threads " << threads << " sweep "
            << sweep;
        ASSERT_EQ(pooled.topic_counts(), expected_ck[sweep])
            << "plan " << npc.name << " threads " << threads;
      }
      EXPECT_EQ(ParallelExecutor::DriverScoped(), nullptr);
    }
  }
}

// The hand-off itself: the driving executor is visible on the driver thread
// at every barrier of RunSweep/FinishSweep, never inside a task body (not
// even on worker 0, which is the driver thread), and gone afterwards.
TEST(ParallelSweepTest, DriverScopedExecutorIsVisibleOnlyAtBarriers) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler inner;
  inner.Init(corpus, TestConfig());
  ForwardingSampler sampler(inner);
  ParallelExecutor executor(4);
  std::atomic<int> blocks_seeing_executor{0};
  int barriers = 0;
  int barriers_seeing_executor = 0;
  sampler.on_block = [&](uint32_t) {
    if (ParallelExecutor::DriverScoped() != nullptr) ++blocks_seeing_executor;
  };
  sampler.on_barrier = [&] {
    ++barriers;
    if (ParallelExecutor::DriverScoped() == &executor) {
      ++barriers_seeing_executor;
    }
  };
  EXPECT_EQ(ParallelExecutor::DriverScoped(), nullptr);
  executor.RunSweep(sampler, MakeSweepPlan(corpus, 3, 3));
  EXPECT_EQ(ParallelExecutor::DriverScoped(), nullptr);
  EXPECT_EQ(blocks_seeing_executor.load(), 0);
  EXPECT_GE(barriers, 3);  // BeginSweep + at least two EndStage barriers
  EXPECT_EQ(barriers_seeing_executor, barriers);

  // The sampler does hand its builds to that pool: a 3x3 sweep makes one
  // Run() per fused span ([wa] | [wp, da] | [dp]: 3) plus one per barrier
  // build — the column arena at BeginSweep, the alias tables and the row
  // arena at word-propose entry — and every pooled Run() observes the
  // barrier-wait histogram once.
  {
    WarpLdaSampler builds;
    builds.Init(corpus, TestConfig());
    obs::SetMetricsEnabled(true);
    executor.RunSweep(builds, MakeSweepPlan(corpus, 3, 3));  // registers it
    obs::Histogram* runs = obs::MetricsRegistry::Global().GetHistogram(
        "executor_barrier_wait_us");
    const uint64_t before = runs->Snapshot().count;
    executor.RunSweep(builds, MakeSweepPlan(corpus, 3, 3));
    const uint64_t pooled_runs = runs->Snapshot().count - before;
    obs::SetMetricsEnabled(false);
    EXPECT_EQ(pooled_runs, 3u + 3u);
  }

  // Plain Run() tasks see nothing either, and the serial protocol driver
  // leaves the builds inline.
  executor.Run(16, [&](uint32_t, uint32_t) {
    if (ParallelExecutor::DriverScoped() != nullptr) ++blocks_seeing_executor;
  });
  EXPECT_EQ(blocks_seeing_executor.load(), 0);
  barriers = barriers_seeing_executor = 0;
  sampler.RunSweep(MakeSweepPlan(corpus, 3, 3));
  EXPECT_GE(barriers, 3);
  EXPECT_EQ(barriers_seeing_executor, 0);
}

// Two samplers that each own half of a 4x4 grid (SetLocalBlocks), driven
// like a two-process distributed run but on one pool: each block runs on
// its owner with RunBlockCaptured, and its delta is injected into the other
// sampler at the barrier. The filtered pool builds (only owned items' row
// tables and alias tables) must keep both on the Iterate() trajectory.
class SplitOwnerSampler : public GridSampler {
 public:
  SplitOwnerSampler(WarpLdaSampler& a, WarpLdaSampler& b,
                    std::vector<char> owned_by_a)
      : parts_{&a, &b}, owned_by_a_(std::move(owned_by_a)) {
    std::vector<char> owned_by_b(owned_by_a_.size());
    for (size_t i = 0; i < owned_by_a_.size(); ++i) {
      owned_by_b[i] = owned_by_a_[i] ? 0 : 1;
    }
    a.SetLocalBlocks(owned_by_a_);
    b.SetLocalBlocks(owned_by_b);
  }

  void BeginSweep(const SweepPlan& plan) override {
    num_word_blocks_ = plan.num_word_blocks;
    deltas_.assign(owned_by_a_.size(), GridBlockDelta{});
    for (WarpLdaSampler* part : parts_) part->BeginSweep(plan);
  }
  void ReserveWorkers(uint32_t num_workers) override {
    for (WarpLdaSampler* part : parts_) part->ReserveWorkers(num_workers);
  }
  void RunBlock(uint32_t doc_block, uint32_t word_block,
                uint32_t worker) override {
    const size_t b = static_cast<size_t>(doc_block) * num_word_blocks_ +
                     word_block;
    WarpLdaSampler* owner = owned_by_a_[b] ? parts_[0] : parts_[1];
    ASSERT_TRUE(
        owner->RunBlockCaptured(doc_block, word_block, worker, &deltas_[b]));
  }
  void EndStage() override {
    for (size_t b = 0; b < deltas_.size(); ++b) {
      WarpLdaSampler* peer = owned_by_a_[b] ? parts_[1] : parts_[0];
      std::string error;
      ASSERT_TRUE(peer->ApplyBlockDelta(deltas_[b], &error)) << error;
    }
    for (WarpLdaSampler* part : parts_) part->EndStage();
  }
  void EndSweep() override {
    for (WarpLdaSampler* part : parts_) part->EndSweep();
  }
  void AbortSweep() override {
    for (WarpLdaSampler* part : parts_) part->AbortSweep();
  }
  SweepStage sweep_stage() const override { return parts_[0]->sweep_stage(); }

 private:
  WarpLdaSampler* parts_[2];
  std::vector<char> owned_by_a_;
  uint32_t num_word_blocks_ = 1;
  std::vector<GridBlockDelta> deltas_;  // one slot per block
};

TEST(ParallelSweepTest, LocalBlocksFilteredPoolSweepMatchesIterate) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 4, 4, PartitionStrategy::kGreedy);
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  for (int sweep = 0; sweep < 3; ++sweep) reference.Iterate();

  // Sampler A owns doc blocks 0-1, B owns 2-3 — the row-partitioned
  // ownership a two-worker distributed run uses.
  std::vector<char> owned_by_a(16, 0);
  for (size_t b = 0; b < 8; ++b) owned_by_a[b] = 1;
  for (uint32_t threads : {2u, 4u}) {
    WarpLdaSampler a;
    WarpLdaSampler b;
    a.Init(corpus, config);
    b.Init(corpus, config);
    SplitOwnerSampler split(a, b, owned_by_a);
    ParallelExecutor executor(threads);
    for (int sweep = 0; sweep < 3; ++sweep) executor.RunSweep(split, plan);
    EXPECT_EQ(a.Assignments(), reference.Assignments())
        << "threads " << threads;
    EXPECT_EQ(b.Assignments(), reference.Assignments())
        << "threads " << threads;
    EXPECT_EQ(a.topic_counts(), reference.topic_counts());
    EXPECT_EQ(b.topic_counts(), reference.topic_counts());
  }
}

// A sweep checkpointed at every mid-sweep barrier on a 2-thread pool,
// restored into a fresh sampler (RestoreSweepState rebuilds its span state
// inline) and finished by FinishSweep at 1, 4 and 8 threads, must land on
// the uninterrupted trajectory.
TEST(ParallelSweepTest, MidSweepRestoreFinishedAtAnotherWidthIsBitIdentical) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 8, 8, PartitionStrategy::kGreedy);
  WarpLdaSampler reference;
  reference.Init(corpus, config);
  for (int sweep = 0; sweep < 3; ++sweep) reference.Iterate();

  WarpLdaSampler victim;
  victim.Init(corpus, config);
  ParallelExecutor capture_exec(2);
  capture_exec.RunSweep(victim, plan);
  std::vector<SweepCheckpoint> captured;
  capture_exec.RunSweep(victim, plan, [&](SweepStage) {
    SweepCheckpoint state;
    ASSERT_TRUE(victim.CaptureSweepState(&state));
    captured.push_back(std::move(state));
  });
  // The 8x8 spans are [wa] | [wp, da] | [dp]: two mid-sweep barriers.
  ASSERT_EQ(captured.size(), 2u);
  for (const SweepCheckpoint& state : captured) {
    for (uint32_t threads : {1u, 4u, 8u}) {
      WarpLdaSampler resumed;
      resumed.Init(corpus, config);
      std::string error;
      ASSERT_TRUE(resumed.RestoreSweepState(state, &error)) << error;
      ParallelExecutor resume_exec(threads);
      resume_exec.FinishSweep(resumed, state.plan);
      resume_exec.RunSweep(resumed, plan);
      EXPECT_EQ(resumed.Assignments(), reference.Assignments())
          << "restored at " << ToString(state.next_stage) << " threads "
          << threads;
      EXPECT_EQ(resumed.topic_counts(), reference.topic_counts());
    }
  }
}

// A task that throws — a block body, or a task the driver runs on the pool
// at a barrier — aborts the sweep: the exception reaches the caller, the
// driver-scoped executor is cleared, and the sampler and pool stay usable.
TEST(ParallelSweepTest, ThrowingTaskAbortsSweepAndClearsDriverScope) {
  Corpus corpus = TestCorpus();
  LdaConfig config = TestConfig();
  SweepPlan plan = MakeSweepPlan(corpus, 4, 4);
  for (bool at_barrier : {false, true}) {
    WarpLdaSampler inner;
    inner.Init(corpus, config);
    ForwardingSampler sampler(inner);
    ParallelExecutor executor(4);
    executor.RunSweep(sampler, plan);
    std::atomic<int> blocks{0};
    int barriers = 0;
    if (at_barrier) {
      sampler.on_barrier = [&] {
        if (++barriers != 2) return;  // the first EndStage barrier
        ParallelExecutor* pool = ParallelExecutor::DriverScoped();
        ASSERT_EQ(pool, &executor);
        pool->Run(32, [](uint32_t, uint32_t task) {
          if (task == 11) throw std::runtime_error("barrier task");
        });
      };
    } else {
      sampler.on_block = [&](uint32_t) {
        if (++blocks == 5) throw std::runtime_error("block task");
      };
    }
    EXPECT_THROW(executor.RunSweep(sampler, plan), std::runtime_error);
    EXPECT_EQ(ParallelExecutor::DriverScoped(), nullptr);
    EXPECT_EQ(inner.sweep_stage(), SweepStage::kDone);
    EXPECT_EQ(inner.topic_counts(),
              Histogram(inner.Assignments(), config.num_topics));

    sampler.on_block = nullptr;
    sampler.on_barrier = nullptr;
    executor.RunSweep(sampler, plan);
    EXPECT_EQ(inner.topic_counts(),
              Histogram(inner.Assignments(), config.num_topics));
    // The recovered state is self-consistent: restored into a fresh
    // sampler, a serial sweep from it matches the pool sweep from it.
    SweepCheckpoint state;
    ASSERT_TRUE(inner.CaptureSweepState(&state));
    WarpLdaSampler twin;
    twin.Init(corpus, config);
    std::string error;
    ASSERT_TRUE(twin.RestoreSweepState(state, &error)) << error;
    executor.RunSweep(inner, plan);
    twin.RunSweep(plan);
    EXPECT_EQ(inner.Assignments(), twin.Assignments());
    EXPECT_EQ(inner.topic_counts(), twin.topic_counts());
  }
}

}  // namespace
}  // namespace warplda
