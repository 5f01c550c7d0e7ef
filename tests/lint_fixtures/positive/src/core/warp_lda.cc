// Positive fixture: per-token synchronization inside hot-path bodies.
#include <atomic>
#include <mutex>

void WarpLdaSampler::RunBlock(uint32_t doc_block, uint32_t word_block,
                              uint32_t worker) {
  for (uint32_t t = 0; t < block_tokens_; ++t) {
    tokens_sampled_.fetch_add(1);
  }
}

void WarpLdaSampler::SampleRowItemRange(uint32_t worker) {
  std::lock_guard<std::mutex> guard(ck_mutex_);
}

void WarpLdaSampler::RunFusedWordPart(uint32_t doc_block, uint32_t worker) {
  std::lock_guard<std::mutex> guard(col_mutex_);
}

void WarpLdaSampler::AcceptSegment(uint32_t n, uint32_t worker) {
  for (uint32_t t = 0; t < n; ++t) moves_applied_.fetch_add(1);
}
