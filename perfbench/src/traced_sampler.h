// Forwarding sampler that times calls into an unmodified WarpLdaSampler.
//
// Train() receives this wrapper instead of the sampler. For Iterate() runs
// it records one span per Iterate; for grid runs Train's own
// ParallelExecutor::RunSweep drives it exactly as it would drive the real
// sampler, and it records:
//   * on the driver track (0): a "sweep" span from BeginSweep to EndSweep,
//     its barrier-side children BeginSweep / ReserveWorkers / EndStage /
//     EndSweep, and one "stage" span for each interval between them (the
//     wall time blocks had to run);
//   * on track 1 + w: one "block" span per RunBlock call made with worker
//     id w, parented to the stage span that was open when the stage began.
// Workers write only their own track, so recording shares no counter. The
// stage-span id workers read is written by the driver before the executor
// publishes the stage's tasks, which orders it before every read.
#ifndef PERFBENCH_TRACED_SAMPLER_H_
#define PERFBENCH_TRACED_SAMPLER_H_

#include <string>
#include <vector>

#include "core/warp_lda.h"
#include "tracer.h"

namespace perfbench {

class TracedWarpLda final : public warplda::Sampler,
                            public warplda::GridSampler {
 public:
  /// `tracer` needs 1 + max executor workers tracks.
  TracedWarpLda(warplda::WarpLdaSampler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), driver_(tracer.track(0)) {}

  // ---- Sampler
  void Init(const warplda::Corpus& corpus,
            const warplda::LdaConfig& config) override {
    const SpanId s = driver_.Begin("sampler.init");
    inner_.Init(corpus, config);
    driver_.End(s);
  }
  void Iterate() override {
    const SpanId s = driver_.Begin("sampler.iterate");
    inner_.Iterate();
    driver_.End(s);
  }
  std::vector<warplda::TopicId> Assignments() const override {
    // Train reads the assignments right before each log-likelihood
    // evaluation; the span ends where its callback fires (EndEvaluation).
    eval_start_ns_ = NowNs();
    return inner_.Assignments();
  }
  void SetAssignments(const std::vector<warplda::TopicId>& z) override {
    inner_.SetAssignments(z);
  }
  void SetPriors(double alpha, double beta) override {
    inner_.SetPriors(alpha, beta);
  }
  std::string name() const override { return inner_.name(); }

  // ---- GridSampler
  void BeginSweep(const warplda::SweepPlan& plan) override {
    sweep_ = driver_.Begin("sweep");
    const SpanId s = driver_.Begin("barrier.begin_sweep", sweep_);
    inner_.BeginSweep(plan);
    driver_.End(s);
    OpenStage();
  }
  void ReserveWorkers(uint32_t num_workers) override {
    CloseStage();
    const SpanId s = driver_.Begin("barrier.reserve_workers", sweep_);
    inner_.ReserveWorkers(num_workers);
    driver_.End(s);
    OpenStage();
  }
  void RunBlock(uint32_t doc_block, uint32_t word_block,
                uint32_t worker) override {
    SpanBuffer& buf = tracer_.track(1 + worker);
    const SpanId s = buf.Begin("block", stage_);
    inner_.RunBlock(doc_block, word_block, worker);
    buf.End(s);
  }
  void EndStage() override {
    CloseStage();
    const SpanId s = driver_.Begin("barrier.end_stage", sweep_);
    inner_.EndStage();
    driver_.End(s);
    if (inner_.sweep_stage() != warplda::SweepStage::kDone) OpenStage();
  }
  void EndSweep() override {
    CloseStage();
    const SpanId s = driver_.Begin("barrier.end_sweep", sweep_);
    inner_.EndSweep();
    driver_.End(s);
    driver_.End(sweep_);
    sweep_ = kNoSpan;
  }
  void AbortSweep() override {
    CloseStage();
    inner_.AbortSweep();
  }
  warplda::SweepStage sweep_stage() const override {
    return inner_.sweep_stage();
  }

  /// Call from Train's evaluation callback, which fires right after the log
  /// likelihood of the assignments read by the last Assignments() call was
  /// computed: records that interval as an "eval.joint_ll" span on the
  /// driver track and returns its seconds.
  double EndEvaluation() {
    const int64_t now = NowNs();
    driver_.End(driver_.Begin("eval.joint_ll", eval_start_ns_, kNoSpan), now);
    return (now - eval_start_ns_) * 1e-9;
  }

 private:
  void OpenStage() { stage_ = driver_.Begin("stage", sweep_); }
  void CloseStage() {
    if (stage_ != kNoSpan) driver_.End(stage_);
    stage_ = kNoSpan;
  }

  warplda::WarpLdaSampler& inner_;
  Tracer& tracer_;
  SpanBuffer& driver_;
  SpanId sweep_ = kNoSpan;
  SpanId stage_ = kNoSpan;
  mutable int64_t eval_start_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_SAMPLER_H_
