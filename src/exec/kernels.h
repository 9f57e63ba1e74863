#ifndef AIMAI_EXEC_KERNELS_H_
#define AIMAI_EXEC_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "exec/batch.h"
#include "exec/expression.h"

namespace aimai {

/// Flattened, branch-free form of NumericBounds for the batch filter
/// kernels. `Pass` mirrors `NumericBounds::Contains` bit-for-bit —
/// including its NaN behavior (NaN compares false against both ends, so a
/// NaN cell passes every bound, exactly as in the row engine) — but with
/// the short-circuiting `if`s replaced by data-parallel mask arithmetic so
/// the compiler can vectorize the compaction loop.
struct BoundsSpec {
  double lo = 0;
  double hi = 0;
  uint32_t check_lo = 0;  // 1 iff has_lo.
  uint32_t check_hi = 0;  // 1 iff has_hi.
  uint32_t lo_open = 0;
  uint32_t hi_open = 0;

  static BoundsSpec From(const NumericBounds& b);

  bool Pass(double x) const {
    // fail_lo = has_lo && (lo_open ? x <= lo : x < lo), decomposed so every
    // comparison is an independent mask (x <= lo  ==  x < lo || x == lo).
    const uint32_t fail_lo =
        check_lo & (static_cast<uint32_t>(x < lo) |
                    (lo_open & static_cast<uint32_t>(x == lo)));
    const uint32_t fail_hi =
        check_hi & (static_cast<uint32_t>(x > hi) |
                    (hi_open & static_cast<uint32_t>(x == hi)));
    return (fail_lo | fail_hi) == 0;
  }
};

/// Dense filter over rows [begin, end): writes passing row ids to `out`,
/// returns how many passed. Branch-free compaction: each iteration writes
/// unconditionally and bumps the cursor by the predicate mask.
template <typename T>
size_t FilterDenseT(const T* data, uint32_t begin, uint32_t end,
                    const BoundsSpec& b, uint32_t* out) {
  size_t k = 0;
  for (uint32_t r = begin; r < end; ++r) {
    out[k] = r;
    k += static_cast<size_t>(b.Pass(static_cast<double>(data[r])));
  }
  return k;
}

/// Gather filter over a selection vector. Safe in place (out == ids): the
/// write cursor never outruns the read cursor.
template <typename T>
size_t FilterGatherT(const T* data, const uint32_t* ids, size_t n,
                     const BoundsSpec& b, uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = ids[i];
    out[k] = r;
    k += static_cast<size_t>(b.Pass(static_cast<double>(data[r])));
  }
  return k;
}

/// Typed dispatch wrappers (one type switch per chunk, not per cell).
size_t FilterDense(const ColumnView& col, uint32_t begin, uint32_t end,
                   const BoundsSpec& b, uint32_t* out);
size_t FilterGather(const ColumnView& col, const uint32_t* ids, size_t n,
                    const BoundsSpec& b, uint32_t* out);

/// Writes begin, begin+1, ..., begin+n-1 into `out`.
void Iota(uint32_t* out, uint32_t begin, size_t n);

/// Gathers one slot of row-major tuples: `out[i] = ids[(first + i) *
/// stride + slot]` for i < n. Turns a flat multi-table row set into the
/// per-table row-id column the other kernels consume.
void GatherSlot(const uint32_t* ids, size_t stride, size_t slot, size_t first,
                size_t n, uint32_t* out);

/// Sequential gather-accumulate sweep over selected rows, in id order, for
/// one aggregate column: `*sum += v; *mn = min(*mn, v); *mx = max(*mx, v)`
/// per row. Accumulation order and operations match the row engine's
/// AggregateRows exactly, so results are FP-bit-identical; callers carry
/// the accumulators across chunks rather than combining partial sums.
/// Pass nullptr for the accumulators the caller does not read: exactly one
/// of the three must be non-null.
void AccumulateNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                       double* sum, double* mn, double* mx);

/// Grouped variant: row i accumulates into slot `grp[i] * stride + offset`
/// of the sums/mins/maxs arrays. Per slot, updates land for rows in id
/// order — the identical sequence the row engine's per-row aggregate loop
/// produces — so grouped sums stay FP-bit-identical. Null accumulator
/// arrays are skipped, as in AccumulateNumeric.
void AccumulateNumericGrouped(const ColumnView& col, const uint32_t* ids,
                              const uint32_t* grp, size_t n, size_t stride,
                              size_t offset, double* sums, double* mins,
                              double* maxs);

/// Gathers the numeric view of selected cells into a dense output array.
void GatherNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                   double* out);

}  // namespace aimai

#endif  // AIMAI_EXEC_KERNELS_H_
