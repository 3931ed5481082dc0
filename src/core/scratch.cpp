#include "core/scratch.h"

namespace coolopt::core {
namespace {

size_t allocation_bytes(const Allocation& a) {
  return a.loads.capacity() * sizeof(double) + a.on.capacity() / 8;
}

}  // namespace

size_t SolveScratch::bytes() const {
  size_t b = (allowed.capacity() + order.capacity() + capacity_order.capacity() +
              idle_order.capacity() + subset.capacity()) *
                 sizeof(size_t) +
             mask.capacity();
  b += ranked.capacity() * sizeof(RankEntry) + table_mask.bytes();
  b += allocation_bytes(best_alloc) + allocation_bytes(trial_alloc);
  b += allocation_bytes(cf.allocation);
  b += bounded.bytes();
  return b;
}

void SolveScratch::reserve_for(size_t n) {
  for (Allocation* a : {&best_alloc, &trial_alloc, &cf.allocation}) {
    a->loads.reserve(n);
    a->on.reserve(n);
  }
  subset.reserve(n);
  ranked.reserve(n);
}

SolveScratch& SolveScratch::local() {
  thread_local SolveScratch scratch;
  return scratch;
}

}  // namespace coolopt::core
