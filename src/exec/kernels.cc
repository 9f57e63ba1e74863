#include "exec/kernels.h"

#include <algorithm>

#include "common/check.h"

namespace aimai {

BoundsSpec BoundsSpec::From(const NumericBounds& b) {
  BoundsSpec s;
  s.lo = b.lo;
  s.hi = b.hi;
  s.check_lo = b.has_lo ? 1u : 0u;
  s.check_hi = b.has_hi ? 1u : 0u;
  s.lo_open = b.lo_open ? 1u : 0u;
  s.hi_open = b.hi_open ? 1u : 0u;
  return s;
}

size_t FilterDense(const ColumnView& col, uint32_t begin, uint32_t end,
                   const BoundsSpec& b, uint32_t* out) {
  switch (col.type) {
    case DataType::kInt64:
      return FilterDenseT(col.i64, begin, end, b, out);
    case DataType::kDouble:
      return FilterDenseT(col.f64, begin, end, b, out);
    case DataType::kString:
      return FilterDenseT(col.codes, begin, end, b, out);
  }
  return 0;
}

size_t FilterGather(const ColumnView& col, const uint32_t* ids, size_t n,
                    const BoundsSpec& b, uint32_t* out) {
  switch (col.type) {
    case DataType::kInt64:
      return FilterGatherT(col.i64, ids, n, b, out);
    case DataType::kDouble:
      return FilterGatherT(col.f64, ids, n, b, out);
    case DataType::kString:
      return FilterGatherT(col.codes, ids, n, b, out);
  }
  return 0;
}

void Iota(uint32_t* out, uint32_t begin, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = begin + static_cast<uint32_t>(i);
}

void GatherSlot(const uint32_t* ids, size_t stride, size_t slot, size_t first,
                size_t n, uint32_t* out) {
  const uint32_t* src = ids + first * stride + slot;
  for (size_t i = 0; i < n; ++i) out[i] = src[i * stride];
}

namespace {

// Each instantiation updates only the accumulators it is asked for; the
// ones it does update advance exactly as in the all-three loop.
template <bool kSum, bool kMin, bool kMax, typename T>
void AccumulateNumericT(const T* data, const uint32_t* ids, size_t n,
                        double* sum, double* mn, double* mx) {
  double s = kSum ? *sum : 0, lo = kMin ? *mn : 0, hi = kMax ? *mx : 0;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[ids[i]]);
    if (kSum) s += v;
    if (kMin) lo = std::min(lo, v);
    if (kMax) hi = std::max(hi, v);
  }
  if (kSum) *sum = s;
  if (kMin) *mn = lo;
  if (kMax) *mx = hi;
}

template <bool kSum, bool kMin, bool kMax, typename T>
void AccumulateNumericGroupedT(const T* data, const uint32_t* ids,
                               const uint32_t* grp, size_t n, size_t stride,
                               size_t offset, double* sums, double* mins,
                               double* maxs) {
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[ids[i]]);
    const size_t slot = static_cast<size_t>(grp[i]) * stride + offset;
    if (kSum) sums[slot] += v;
    if (kMin) mins[slot] = std::min(mins[slot], v);
    if (kMax) maxs[slot] = std::max(maxs[slot], v);
  }
}

/// Calls `f.template operator()<kSum, kMin, kMax>()` for the accumulator
/// set the non-null pointers select.
template <typename F>
void DispatchAccumulators(const double* sum, const double* mn,
                          const double* mx, F&& f) {
  const int mask = (sum != nullptr ? 4 : 0) | (mn != nullptr ? 2 : 0) |
                   (mx != nullptr ? 1 : 0);
  switch (mask) {
    case 4:
      f.template operator()<true, false, false>();
      return;
    case 2:
      f.template operator()<false, true, false>();
      return;
    case 1:
      f.template operator()<false, false, true>();
      return;
    default:
      AIMAI_CHECK_MSG(false, "exactly one accumulator must be non-null");
  }
}

template <typename T>
void GatherNumericT(const T* data, const uint32_t* ids, size_t n,
                    double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(data[ids[i]]);
}

}  // namespace

void AccumulateNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                       double* sum, double* mn, double* mx) {
  DispatchAccumulators(sum, mn, mx, [&]<bool kS, bool kMn, bool kMx>() {
    switch (col.type) {
      case DataType::kInt64:
        AccumulateNumericT<kS, kMn, kMx>(col.i64, ids, n, sum, mn, mx);
        return;
      case DataType::kDouble:
        AccumulateNumericT<kS, kMn, kMx>(col.f64, ids, n, sum, mn, mx);
        return;
      case DataType::kString:
        AccumulateNumericT<kS, kMn, kMx>(col.codes, ids, n, sum, mn, mx);
        return;
    }
  });
}

void AccumulateNumericGrouped(const ColumnView& col, const uint32_t* ids,
                              const uint32_t* grp, size_t n, size_t stride,
                              size_t offset, double* sums, double* mins,
                              double* maxs) {
  DispatchAccumulators(sums, mins, maxs, [&]<bool kS, bool kMn, bool kMx>() {
    switch (col.type) {
      case DataType::kInt64:
        AccumulateNumericGroupedT<kS, kMn, kMx>(col.i64, ids, grp, n, stride,
                                                offset, sums, mins, maxs);
        return;
      case DataType::kDouble:
        AccumulateNumericGroupedT<kS, kMn, kMx>(col.f64, ids, grp, n, stride,
                                                offset, sums, mins, maxs);
        return;
      case DataType::kString:
        AccumulateNumericGroupedT<kS, kMn, kMx>(col.codes, ids, grp, n,
                                                stride, offset, sums, mins,
                                                maxs);
        return;
    }
  });
}

void GatherNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                   double* out) {
  switch (col.type) {
    case DataType::kInt64:
      GatherNumericT(col.i64, ids, n, out);
      return;
    case DataType::kDouble:
      GatherNumericT(col.f64, ids, n, out);
      return;
    case DataType::kString:
      GatherNumericT(col.codes, ids, n, out);
      return;
  }
}

}  // namespace aimai
