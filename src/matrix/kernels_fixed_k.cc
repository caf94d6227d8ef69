#include <algorithm>
#include <cmath>
#include <utility>

#include "src/matrix/kernels.h"

namespace triclust {
namespace kernels {

/// Generic reference bodies — the exact loops ops.cc ran before the
/// dispatch layer existed, and the bitwise oracle every specialized body
/// below is pinned against (tests/kernel_dispatch_test.cc). Change these
/// and every reproducibility guarantee in the repo moves with them.

void GenericSpMMRows(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* d, size_t k,
                     double* c, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* crow = c + i * k;
    for (size_t j = 0; j < k; ++j) crow[j] = 0.0;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * k;
      for (size_t j = 0; j < k; ++j) {
        crow[j] += v * drow[j];
      }
    }
  }
}

void GenericAtBAccumulate(const double* a, size_t ka, const double* b,
                          size_t kb, size_t p_begin, size_t p_end,
                          double* out) {
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * ka;
    const double* brow = b + p * kb;
    for (size_t i = 0; i < ka; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out + i * kb;
      for (size_t j = 0; j < kb; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

void GenericMatMulRows(const double* a, size_t p_dim, const double* b,
                       size_t n, double* c, size_t row_begin,
                       size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * p_dim;
    double* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) crow[j] = 0.0;
    for (size_t p = 0; p < p_dim; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GenericABtRows(const double* a, size_t p_dim, const double* b,
                    size_t b_rows, double* c, size_t row_begin,
                    size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * p_dim;
    double* crow = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * p_dim;
      double dot = 0.0;
      for (size_t p = 0; p < p_dim; ++p) dot += arow[p] * brow[p];
      crow[j] = dot;
    }
  }
}

void GenericMulUpdateRange(double* m, const double* numer,
                           const double* denom, double eps, size_t begin,
                           size_t end) {
  for (size_t i = begin; i < end; ++i) {
    // Negative intermediate values can only arise from floating-point
    // noise (all rule terms are constructed non-negative); clamp before
    // the ratio.
    const double n = std::max(numer[i], 0.0) + eps;
    const double d = std::max(denom[i], 0.0) + eps;
    m[i] *= std::sqrt(n / d);
  }
}

double GenericDotRange(const double* x, const double* y, size_t begin,
                       size_t end) {
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    total += x[i] * y[i];
  }
  return total;
}

double GenericDiffSquaredRange(const double* x, const double* y, size_t begin,
                               size_t end) {
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double diff = x[i] - y[i];
    total += diff * diff;
  }
  return total;
}

double GenericSpCrossRows(const size_t* row_ptr, const uint32_t* col_idx,
                          const double* values, const double* u,
                          const double* v, size_t k, size_t row_begin,
                          size_t row_end) {
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * k;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * k;
      double dot = 0.0;
      for (size_t c = 0; c < k; ++c) dot += urow[c] * vrow[c];
      total += values[p] * dot;
    }
  }
  return total;
}

/// Fixed-k bodies: identical statement sequence per output element, with K
/// a compile-time constant so the accumulators live in registers for the
/// whole row (the generic loops must round-trip every += through memory —
/// the compiler cannot prove the output does not alias the inputs).
///
/// Register residency is explicit, not left to the optimizer: every K loop
/// is a pack expansion over std::index_sequence<0, …, K−1>, i.e.
/// straight-line code whose array indices are all constants, so the small
/// accumulator/operand arrays are scalarized into registers at -O2 as at
/// -O3. (Written as `for (j < K)` loops they unroll only at -O3 with
/// GCC 12; at the -O2 of the default RelWithDebInfo build they stayed
/// rolled and kept the arrays in stack memory.) Comma folds evaluate left
/// to right, so each output element still sees the generic loop's order.

namespace {

template <size_t K>
using Seq = std::make_index_sequence<K>;

template <size_t K, size_t... J>
void LoadRow(const double* src, double (&dst)[K], std::index_sequence<J...>) {
  ((dst[J] = src[J]), ...);
}

template <size_t K, size_t... J>
void StoreRow(const double (&src)[K], double* dst, std::index_sequence<J...>) {
  ((dst[J] = src[J]), ...);
}

/// y += av·x, skipped when av is 0 — the `av == 0.0` skip of the generic
/// AtB and MatMul loops, which keeps 0·inf/NaN out of the sums.
template <size_t K, size_t... J>
void AxpyUnlessZero(double av, const double (&x)[K], double (&y)[K],
                    std::index_sequence<J...>) {
  if (av == 0.0) return;
  ((y[J] += av * x[J]), ...);
}

template <size_t... J>
void SpMMRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                   const double* values, const double* d, double* c,
                   size_t row_begin, size_t row_end,
                   std::index_sequence<J...> seq) {
  constexpr size_t K = sizeof...(J);
  for (size_t i = row_begin; i < row_end; ++i) {
    double acc[K] = {};
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * K;
      ((acc[J] += v * drow[J]), ...);
    }
    StoreRow(acc, c + i * K, seq);
  }
}

template <size_t... I>
void AtBAccumulateFixed(const double* a, const double* b, size_t p_begin,
                        size_t p_end, double* out,
                        std::index_sequence<I...> seq) {
  constexpr size_t K = sizeof...(I);
  // The K×K product is register-resident: load once, accumulate across
  // the whole row range, store once.
  double acc[K][K];
  (LoadRow(out + I * K, acc[I], seq), ...);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * K;
    const double* bp = b + p * K;
    const double brow[K] = {bp[I]...};
    (AxpyUnlessZero(arow[I], brow, acc[I], seq), ...);
  }
  (StoreRow(acc[I], out + I * K, seq), ...);
}

template <size_t... P>
void MatMulRowsFixed(const double* a, const double* b, double* c,
                     size_t row_begin, size_t row_end,
                     std::index_sequence<P...> seq) {
  constexpr size_t K = sizeof...(P);
  // The K×K right operand is read once per call, not once per row.
  double bk[K][K];
  (LoadRow(b + P * K, bk[P], seq), ...);
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    double acc[K] = {};
    (AxpyUnlessZero(arow[P], bk[P], acc, seq), ...);
    StoreRow(acc, c + i * K, seq);
  }
}

template <size_t... P>
void ABtRowsFixed(const double* a, const double* b, size_t b_rows, double* c,
                  size_t row_begin, size_t row_end,
                  std::index_sequence<P...>) {
  constexpr size_t K = sizeof...(P);
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    const double ar[K] = {arow[P]...};
    double* crow = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * K;
      double dot = 0.0;
      ((dot += ar[P] * brow[P]), ...);
      crow[j] = dot;
    }
  }
}

template <size_t... C>
double SpCrossRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                        const double* values, const double* u,
                        const double* v, size_t row_begin, size_t row_end,
                        std::index_sequence<C...>) {
  constexpr size_t K = sizeof...(C);
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * K;
    const double ur[K] = {urow[C]...};
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * K;
      double dot = 0.0;
      ((dot += ur[C] * vrow[C]), ...);
      total += values[p] * dot;
    }
  }
  return total;
}

}  // namespace

void SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t, double* c,
                size_t row_begin, size_t row_end) {
  SpMMRowsFixed(row_ptr, col_idx, values, d, c, row_begin, row_end,
                Seq<2>());
}
void SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t, double* c,
                size_t row_begin, size_t row_end) {
  SpMMRowsFixed(row_ptr, col_idx, values, d, c, row_begin, row_end,
                Seq<3>());
}
void SpMMRowsK4(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t, double* c,
                size_t row_begin, size_t row_end) {
  SpMMRowsFixed(row_ptr, col_idx, values, d, c, row_begin, row_end,
                Seq<4>());
}

void AtBAccumulateK2(const double* a, size_t, const double* b, size_t,
                     size_t p_begin, size_t p_end, double* out) {
  AtBAccumulateFixed(a, b, p_begin, p_end, out, Seq<2>());
}
void AtBAccumulateK3(const double* a, size_t, const double* b, size_t,
                     size_t p_begin, size_t p_end, double* out) {
  AtBAccumulateFixed(a, b, p_begin, p_end, out, Seq<3>());
}
void AtBAccumulateK4(const double* a, size_t, const double* b, size_t,
                     size_t p_begin, size_t p_end, double* out) {
  AtBAccumulateFixed(a, b, p_begin, p_end, out, Seq<4>());
}

void MatMulRowsK2(const double* a, size_t, const double* b, size_t, double* c,
                  size_t row_begin, size_t row_end) {
  MatMulRowsFixed(a, b, c, row_begin, row_end, Seq<2>());
}
void MatMulRowsK3(const double* a, size_t, const double* b, size_t, double* c,
                  size_t row_begin, size_t row_end) {
  MatMulRowsFixed(a, b, c, row_begin, row_end, Seq<3>());
}
void MatMulRowsK4(const double* a, size_t, const double* b, size_t, double* c,
                  size_t row_begin, size_t row_end) {
  MatMulRowsFixed(a, b, c, row_begin, row_end, Seq<4>());
}

void ABtRowsK2(const double* a, size_t, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end) {
  ABtRowsFixed(a, b, b_rows, c, row_begin, row_end, Seq<2>());
}
void ABtRowsK3(const double* a, size_t, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end) {
  ABtRowsFixed(a, b, b_rows, c, row_begin, row_end, Seq<3>());
}
void ABtRowsK4(const double* a, size_t, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end) {
  ABtRowsFixed(a, b, b_rows, c, row_begin, row_end, Seq<4>());
}

double SpCrossRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, size_t row_begin, size_t row_end) {
  return SpCrossRowsFixed(row_ptr, col_idx, values, u, v, row_begin,
                          row_end, Seq<2>());
}
double SpCrossRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, size_t row_begin, size_t row_end) {
  return SpCrossRowsFixed(row_ptr, col_idx, values, u, v, row_begin,
                          row_end, Seq<3>());
}
double SpCrossRowsK4(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, size_t row_begin, size_t row_end) {
  return SpCrossRowsFixed(row_ptr, col_idx, values, u, v, row_begin,
                          row_end, Seq<4>());
}

/// L2-blocked generic MatMul. The plain loop streams all p_dim rows of b
/// per output row; once b outgrows L2 every output row re-fetches it from
/// memory. Tiling p (b rows) and revisiting a block of output rows per
/// tile keeps the b tile cache-resident. Per output element the adds still
/// happen in ascending p — tiles are visited in order — so the result is
/// bit-identical to GenericMatMulRows.
void BlockedMatMulRows(const double* a, size_t p_dim, const double* b,
                       size_t n, double* c, size_t row_begin,
                       size_t row_end) {
  constexpr size_t kRowBlock = 64;
  // Size the p tile so the b panel (tile × n doubles) stays within ~256 KiB
  // of L2, leaving room for the a and c rows.
  const size_t p_block =
      std::max<size_t>(16, (256u << 10) / (n * sizeof(double)));
  for (size_t ib = row_begin; ib < row_end; ib += kRowBlock) {
    const size_t ie = std::min(row_end, ib + kRowBlock);
    for (size_t i = ib; i < ie; ++i) {
      double* crow = c + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] = 0.0;
    }
    for (size_t pb = 0; pb < p_dim; pb += p_block) {
      const size_t pe = std::min(p_dim, pb + p_block);
      for (size_t i = ib; i < ie; ++i) {
        const double* arow = a + i * p_dim;
        double* crow = c + i * n;
        for (size_t p = pb; p < pe; ++p) {
          const double av = arow[p];
          if (av == 0.0) continue;
          const double* brow = b + p * n;
          for (size_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

}  // namespace kernels
}  // namespace triclust
