// Negative fixture: the same contract vocabulary as the positive twin, with
// every holder of the worker-local type annotated.
#include <cstdint>
#include <vector>

struct WARP_WORKER_LOCAL DemoScratch {
  std::vector<uint32_t> counts;
};

class DemoSampler {
 public:
  void Init(uint32_t n);
  void RunBlock(uint32_t worker, uint32_t block);
  void EndStage();
  void FillDemoItemRange(uint32_t worker, uint32_t begin, uint32_t end);

 private:
  WARP_BARRIER_ONLY uint64_t stage_epoch_ = 0;
  WARP_IMMUTABLE_AFTER(Init) uint32_t num_blocks_ = 0;
  WARP_WORKER_LOCAL std::vector<DemoScratch> scratch_;
  WARP_WORKER_LOCAL std::vector<DemoScratch> spare_;
};
