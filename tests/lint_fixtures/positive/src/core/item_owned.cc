// Positive fixture: WARP_ITEM_OWNED members written where the exemption
// does not reach, and a listed body called from another concurrent body.
#include "core/item_owned.h"

void OwnedDemo::FillRowsItemRange(uint32_t begin, uint32_t end) {
  for (uint32_t i = begin; i < end; ++i) z_[i] = i;  // owned element: legal
  z_.resize(end);  // the container itself, from a concurrent task
}

void OwnedDemo::RunBlock(uint32_t worker, uint32_t block) {
  z_[block] = worker;  // concurrent body that owns no whole items
  FillRowsItemRange(block, block + 1);  // an owning body run inside a block
}
