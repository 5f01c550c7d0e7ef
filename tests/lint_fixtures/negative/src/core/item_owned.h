// Negative fixture: a WARP_ITEM_OWNED exemption naming the item-range body
// that writes its own items in place.
#include <cstdint>
#include <vector>

class OwnedDemo {
 public:
  void Resize(uint32_t n);
  void Sweep(uint32_t n);
  void FillRowsItemRange(uint32_t begin, uint32_t end);
  void RunBlock(uint32_t worker, uint32_t block);

 private:
  WARP_ITEM_OWNED(FillRowsItemRange)
  std::vector<uint32_t> z_;
};
