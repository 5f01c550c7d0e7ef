// Negative fixture: the contracts of contracts_demo.h honored — worker-
// indexed scratch in the concurrent body, barrier-only state touched at the
// barrier, immutable state written only by its listed writer.
#include "core/contracts_demo.h"

void DemoSampler::Init(uint32_t n) {
  num_blocks_ = n;
  scratch_.resize(n);
  spare_.resize(n);
}

void DemoSampler::RunBlock(uint32_t worker, uint32_t block) {
  if (scratch_.size() <= worker) return;  // size query: legal in a hot body
  DemoScratch& scratch = scratch_[worker];
  scratch.counts.push_back(block);
}

void DemoSampler::EndStage() {
  stage_epoch_ += 1;  // stage barrier: the sanctioned write site
}

void DemoSampler::FillDemoItemRange(uint32_t worker, uint32_t begin,
                                    uint32_t end) {
  DemoScratch& scratch = scratch_[worker];  // barrier task: own scratch only
  for (uint32_t i = begin; i < end; ++i) scratch.counts.push_back(i);
}
