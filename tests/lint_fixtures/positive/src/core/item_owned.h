// Positive fixture: WARP_ITEM_OWNED exemptions that name a body which is
// not an item-range task, and one whose body no longer exists.
#include <cstdint>
#include <vector>

class OwnedDemo {
 public:
  void FillRowsItemRange(uint32_t begin, uint32_t end);
  void RunBlock(uint32_t worker, uint32_t block);

 private:
  WARP_ITEM_OWNED(FillRowsItemRange, PatchRowsItemRange)
  std::vector<uint32_t> z_;  // PatchRowsItemRange: no such body (stale)
  WARP_ITEM_OWNED(RunBlock)
  std::vector<uint32_t> props_;  // RunBlock is not an *ItemRange body
};
