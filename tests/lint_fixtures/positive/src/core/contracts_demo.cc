// Positive fixture: every contract in contracts_demo.h violated from a
// concurrent grid body.
#include "core/contracts_demo.h"

void DemoSampler::Init(uint32_t n) {
  num_blocks_ = n;     // listed writer: legal
  scratch_.resize(n);  // not a concurrent body: legal
}

void DemoSampler::RunBlock(uint32_t worker, uint32_t block) {
  stage_epoch_ += 1;               // write to BARRIER_ONLY state mid-stage
  num_blocks_ = block;             // write to IMMUTABLE_AFTER outside Init
  scratch_[block].counts.clear();  // worker-local access not worker-indexed
}

void DemoSampler::EndStage() {
  stage_epoch_ += 1;  // barrier side: legal
}

// A barrier task (one item range per pool task) is a concurrent body too.
void DemoSampler::FillDemoItemRange(uint32_t worker, uint32_t begin,
                                    uint32_t end) {
  for (uint32_t i = begin; i < end; ++i) {
    scratch_[0].counts.push_back(i);  // borrows worker 0's scratch: a race
  }
}
