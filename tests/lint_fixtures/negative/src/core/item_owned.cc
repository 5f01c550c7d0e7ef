// Negative fixture: in-place element writes from the listed item-range
// body, which the driver side calls; container changes on the driver side,
// reads elsewhere.
#include "core/item_owned.h"

void OwnedDemo::Resize(uint32_t n) {
  z_.resize(n);  // not a concurrent body: the barrier side
}

void OwnedDemo::Sweep(uint32_t n) {
  FillRowsItemRange(0, n);  // the driver side runs the owning task
}

void OwnedDemo::FillRowsItemRange(uint32_t begin, uint32_t end) {
  for (uint32_t i = begin; i < end; ++i) {
    z_[i] = i;
    z_.at(i) += 1;  // a reference-returning accessor: still an element
  }
}

void OwnedDemo::RunBlock(uint32_t worker, uint32_t block) {
  if (z_[block] == worker) return;  // reads are free
}
