// axnn — per-thread grow-once scratch arenas for kernel packing buffers.
//
// Every blocked kernel needs transient buffers whose size depends only on
// the plan (packed A/B panels, weight-nibble panels, a conv plane's operand
// bytes).
// Allocating them per call is exactly the steady-state churn the plan
// refactor removes: each thread instead owns one arena per slot that grows
// to the high-water mark and is reused forever after. A serving process
// reaches its peak scratch footprint during warm-up and never allocates on
// the forward path again.
//
// Buffers are 64-byte aligned. Contents are unspecified on return. The slot
// enum exists because one kernel invocation may need several live regions at
// once (e.g. packed A and packed B); nested parallel_for chunks run on
// distinct threads, so per-thread slots never alias across a running kernel.
#pragma once

#include <cstddef>

namespace axnn::kernels {

enum class ScratchSlot {
  kPackA = 0,
  kPackB,
  kWeights,
  kPlane,
  kSlotCount,
};

/// Pointer to this thread's arena for `slot`, grown to at least `bytes`.
/// Valid until the next scratch_bytes call on the same thread+slot with a
/// larger size (the arena may move when it grows).
void* scratch_bytes(ScratchSlot slot, size_t bytes);

template <typename T>
inline T* scratch(ScratchSlot slot, size_t count) {
  return static_cast<T*>(scratch_bytes(slot, count * sizeof(T)));
}

}  // namespace axnn::kernels
