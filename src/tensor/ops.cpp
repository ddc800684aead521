#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace fedtune::ops {

namespace {

// ---------------------------------------------------------------------------
// GEMM kernels.
//
// Every call with n <= kMaxRegN (all MLP and TextMlp layers) runs a
// register kernel: its width N is a template parameter, it keeps a block of
// whole rows of C in registers across all of k, and it reads A and B in
// place (nt transposes the leading n - n % kNr rows of B once per call).
// Wider calls run gemm_tiled: cache-tiled 6x16
// and 4x16 micro-kernels over packed B panels, with a row-streaming edge
// path for the last m % 6 < 4 rows and the n % 16 column tail.
//
// The register kernels compute each element of C exactly as gemm_tiled and
// the packed nt path do, so results do not depend on which kernel ran:
//   - sum form, rows [0, sum_rows(m)) x cols [0, n - n % kNr): an
//     accumulator starts at 0 for every kKc-wide k-tile and is then added
//     to c (for tn only when m >= 2*kMr and n >= kNr);
//   - chain form, every other element: each product is added straight into
//     c, in k order across tiles;
//   - nt's other rows and columns are nt_dot_range dot products.
// With accumulate = false a chain element is stored as 0 + acc, like a
// sum-form one, so an element never comes out -0 in one path and +0 in
// the other.
// ---------------------------------------------------------------------------

constexpr std::size_t kMr = 6;    // C rows per register block
constexpr std::size_t kNr = 16;   // C cols per register block
constexpr std::size_t kKc = 256;  // k-tile: keeps the B panel slice in cache
constexpr std::size_t kMaxRegN = 32;  // widest C the register kernels hold

// Rows [0, sum_rows(m)) are the ones gemm_tiled covers with 6-row blocks
// and one 4-row block; the rest take its edge path.
constexpr std::size_t sum_rows(std::size_t m) {
  const std::size_t m_main = m - m % kMr;
  return m - m_main >= 4 ? m_main + 4 : m_main;
}

// Per-thread packing scratch, reused across calls so steady-state training
// does no allocation here: tl_pack holds the transposed operand of the
// nt/tn variants, tl_panels holds the kNr-wide B column panels of the main
// kernel (see pack_b_panels).
thread_local std::vector<float> tl_pack;
thread_local std::vector<float> tl_panels;

// C[Rows, kNr] block at rows i, cols j (of C) += A rows i..i+Rows over
// k-slice [p0, p1). B is addressed via (ldb, jb): for unpacked row-major B
// pass jb = j; for a packed panel pass the panel pointer with ldb = kNr,
// jb = 0 — then every B access is a contiguous stream. Rows is a compile-
// time constant so the r-loops fully unroll and acc stays in registers;
// instantiated at kMr (main blocks) and 4 (the >= 4-row remainder).
template <std::size_t Rows>
inline void micro_kernel(const float* __restrict a, std::size_t lda,
                         const float* __restrict b, std::size_t ldb,
                         std::size_t jb, float* __restrict c, std::size_t ldc,
                         std::size_t i, std::size_t j, std::size_t p0,
                         std::size_t p1) {
  static_assert(Rows >= 1 && Rows <= kMr);
  float acc[Rows][kNr] = {};
  const float* __restrict arow[Rows];
  for (std::size_t r = 0; r < Rows; ++r) arow[r] = a + (i + r) * lda;
  for (std::size_t p = p0; p < p1; ++p) {
    const float* __restrict brow = b + p * ldb + jb;
    float av[Rows];
    for (std::size_t r = 0; r < Rows; ++r) av[r] = arow[r][p];
    for (std::size_t r = 0; r < Rows; ++r) {
#pragma omp simd
      for (std::size_t t = 0; t < kNr; ++t) acc[r][t] += av[r] * brow[t];
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    float* __restrict crow = c + (i + r) * ldc + j;
#pragma omp simd
    for (std::size_t t = 0; t < kNr; ++t) crow[t] += acc[r][t];
  }
}

// Repacks the full-width column panels of B (k,n) into panel-major layout:
// panel q (columns [q*kNr, q*kNr + kNr)) occupies k*kNr contiguous floats,
// row p at offset q*k*kNr + p*kNr. The micro-kernel then streams B
// sequentially instead of striding ldb floats per k step (which aliases in
// L1 for power-of-two n). Tail columns (n % kNr) are left to edge_rows.
void pack_b_panels(const float* __restrict b, std::size_t ldb, std::size_t k,
                   std::size_t n_main, float* __restrict dst) {
  for (std::size_t q = 0; q < n_main / kNr; ++q) {
    float* __restrict panel = dst + q * k * kNr;
    const float* __restrict src = b + q * kNr;
    for (std::size_t p = 0; p < k; ++p) {
#pragma omp simd
      for (std::size_t t = 0; t < kNr; ++t) {
        panel[p * kNr + t] = src[p * ldb + t];
      }
    }
  }
}

// Row-streaming fallback for edge rows / narrow column tails: C row i,
// columns [j0, j1), += A row i over k-slice [p0, p1).
inline void edge_rows(const float* __restrict a, std::size_t lda,
                      const float* __restrict b, std::size_t ldb,
                      float* __restrict c, std::size_t ldc, std::size_t i0,
                      std::size_t i1, std::size_t j0, std::size_t j1,
                      std::size_t p0, std::size_t p1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict arow = a + i * lda;
    float* __restrict crow = c + i * ldc;
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      const float* __restrict brow = b + p * ldb;
#pragma omp simd
      for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

// C (m,n) += A (m,k) @ B (k,n), all row-major with explicit leading dims.
void gemm_tiled(const float* __restrict a, std::size_t lda,
                const float* __restrict b, std::size_t ldb, float* __restrict c,
                std::size_t ldc, std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t m_main = m - m % kMr;
  const std::size_t n_main = n - n % kNr;

  // Packing B pays once A has enough rows to reuse each panel.
  const bool packed = m >= 4 * kMr && n_main > 0;
  const float* bp = b;
  if (packed) {
    if (tl_panels.size() < k * n_main) tl_panels.resize(k * n_main);
    pack_b_panels(b, ldb, k, n_main, tl_panels.data());
    bp = tl_panels.data();
  }

  // Rows [0, m_main) in 6-row blocks, then a 4-row block if >= 4 rows
  // remain; only the final 0-3 rows (and the n % kNr column tail) take the
  // row-streaming edge path.
  const std::size_t m_tail4 = sum_rows(m);
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = 0; i < m_tail4; i += (i < m_main ? kMr : 4)) {
      const bool full = i < m_main;
      for (std::size_t j = 0; j < n_main; j += kNr) {
        const float* bj = packed ? bp + (j / kNr) * k * kNr : b;
        const std::size_t ldbj = packed ? kNr : ldb;
        const std::size_t jb = packed ? 0 : j;
        if (full) {
          micro_kernel<kMr>(a, lda, bj, ldbj, jb, c, ldc, i, j, p0, p1);
        } else {
          micro_kernel<4>(a, lda, bj, ldbj, jb, c, ldc, i, j, p0, p1);
        }
      }
      if (n_main < n) {
        edge_rows(a, lda, b, ldb, c, ldc, i, i + (full ? kMr : 4), n_main, n,
                  p0, p1);
      }
    }
    if (m_tail4 < m) {
      edge_rows(a, lda, b, ldb, c, ldc, m_tail4, m, 0, n, p0, p1);
    }
  }
}

// Packs the transpose of src (rows x cols, leading dim = cols) into dst so
// dst is (cols x rows) row-major. Blocked to keep both sides cache-friendly.
void pack_transposed(const float* __restrict src, std::size_t rows,
                     std::size_t cols, float* __restrict dst) {
  constexpr std::size_t kB = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kB) {
    const std::size_t r1 = std::min(rows, r0 + kB);
    for (std::size_t c0 = 0; c0 < cols; c0 += kB) {
      const std::size_t c1 = std::min(cols, c0 + kB);
      for (std::size_t r = r0; r < r1; ++r) {
        const float* __restrict s = src + r * cols;
        for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = s[c];
      }
    }
  }
}

// Rows [i, i + R) of C (ldc) (+)= A @ B over all of k, for a C exactly N
// columns wide: A element (r, p) is a[r * ars + p * aks] (a row-major A
// and a transposed one alike), B row p is b + p * ldb. Columns [0, S) take
// the sum form, [S, N) the chain form. Everything is a compile-time
// constant but the strides and k, so the loops over r and t unroll and acc
// stays in registers.
template <std::size_t R, std::size_t N, std::size_t S>
inline void reg_block(const float* __restrict a, std::size_t ars,
                      std::size_t aks, const float* __restrict b,
                      std::size_t ldb, float* __restrict c, std::size_t ldc,
                      std::size_t k, bool accumulate) {
  float acc[R][N];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t t = 0; t < N; ++t) {
      acc[r][t] = (t < S || !accumulate) ? 0.0f : c[r * ldc + t];
    }
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t p = p0; p < p1; ++p) {
      // Opaque to the vectorizer: for narrow N, GCC would otherwise
      // vectorize this k loop as in-order reductions, which multiply and
      // add separately; every other path contracts acc += a * b to an FMA.
      __asm__ volatile("");
      const float* __restrict brow = b + p * ldb;
      for (std::size_t r = 0; r < R; ++r) {
        const float av = a[r * ars + p * aks];
#pragma omp simd
        for (std::size_t t = 0; t < N; ++t) acc[r][t] += av * brow[t];
      }
    }
    const bool fresh = p0 == 0 && !accumulate;
    for (std::size_t r = 0; r < R; ++r) {
      float* __restrict crow = c + r * ldc;
      for (std::size_t t = 0; t < S; ++t) {
        crow[t] = (fresh ? 0.0f : crow[t]) + acc[r][t];
        acc[r][t] = 0.0f;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* __restrict crow = c + r * ldc;
    for (std::size_t t = S; t < N; ++t) {
      crow[t] = accumulate ? acc[r][t] : 0.0f + acc[r][t];
    }
  }
}

// Rows per register block: as many as keep acc within about 24 8-float
// vector registers.
constexpr std::size_t reg_rows(std::size_t n) {
  return std::min<std::size_t>(8, std::max<std::size_t>(1, 24 / ((n + 7) / 8)));
}

// C (m,N) (+)= A (m,k) @ B (k,N) (A addressed as in reg_block) for k >= 1.
// Rows [0, sum) take the sum form on their first N - N % kNr columns.
template <std::size_t N>
void reg_gemm(const float* a, std::size_t ars, std::size_t aks, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
              std::size_t k, std::size_t sum, bool accumulate) {
  constexpr std::size_t R = reg_rows(N);
  constexpr std::size_t S = N - N % kNr;
  std::size_t i = 0;
  for (; i + R <= sum; i += R) {
    reg_block<R, N, S>(a + i * ars, ars, aks, b, ldb, c + i * ldc, ldc, k,
                       accumulate);
  }
  for (; i < sum; ++i) {
    reg_block<1, N, S>(a + i * ars, ars, aks, b, ldb, c + i * ldc, ldc, k,
                       accumulate);
  }
  for (; i + R <= m; i += R) {
    reg_block<R, N, 0>(a + i * ars, ars, aks, b, ldb, c + i * ldc, ldc, k,
                       accumulate);
  }
  for (; i < m; ++i) {
    reg_block<1, N, 0>(a + i * ars, ars, aks, b, ldb, c + i * ldc, ldc, k,
                       accumulate);
  }
}

using RegGemm = void (*)(const float*, std::size_t, std::size_t, const float*,
                         std::size_t, float*, std::size_t, std::size_t,
                         std::size_t, std::size_t, bool);

template <std::size_t... Is>
constexpr std::array<RegGemm, sizeof...(Is)> make_reg_gemms(
    std::index_sequence<Is...>) {
  return {&reg_gemm<Is + 1>...};
}

// kRegGemm[n - 1] is reg_gemm<n>, for n = 1 .. kMaxRegN.
constexpr auto kRegGemm = make_reg_gemms(std::make_index_sequence<kMaxRegN>{});

void gemm_impl(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  if (n <= kMaxRegN) {
    kRegGemm[n - 1](a, k, 1, b, n, c, n, m, k, sum_rows(m), accumulate);
    return;
  }
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  gemm_tiled(a, k, b, n, c, n, m, k, n);
  // The chain form can leave -0 where the sum form gives 0 + -0 = +0; this
  // makes the sign of a zero independent of the row's path too.
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] = 0.0f + c[i];
  }
}

// a · b over k in one order spelled out here, so it cannot depend on how
// the compiler tunes for the host: 16 lane sums (element p fused into lane
// p % 16), the k % 16 tail fused into lane 0 in order, then
// 0 + lane 0 + ... + lane 15 in order.
float dot16(const float* __restrict a, const float* __restrict b,
            std::size_t k) {
  float lane[16] = {};
  const std::size_t k16 = k - k % 16;
  for (std::size_t p = 0; p < k16; p += 16) {
#pragma omp simd
    for (std::size_t l = 0; l < 16; ++l) {
      lane[l] = std::fma(a[p + l], b[p + l], lane[l]);
    }
  }
  for (std::size_t p = k16; p < k; ++p) lane[0] = std::fma(a[p], b[p], lane[0]);
  // Sum the lanes back from memory: one vector store and 16 scalar loads
  // beat the lane-by-lane shuffles GCC emits otherwise (measured with
  // gemm_nt_raw at the text output layer's backward shape, k = 32).
  __asm__ volatile("" : "+m"(lane));
  float acc = 0.0f;
  for (const float v : lane) acc += v;
  return acc;
}

// C[i0:i1, j0:j1] += A rows · B rows as direct dot products (both operands
// contiguous along k in the nt layout). Used for small shapes and for the
// block-remainder edges of the packed nt path.
void nt_dot_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1,
                  std::size_t j0, std::size_t j1) {
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      c[i * n + j] += dot16(a + i * k, b + j * k, k);
    }
  }
}

void gemm_nt_impl(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (k == 0) return;
  const std::size_t n_main = n - n % kNr;
  if (m >= 2 * kMr && n_main > 0) {
    // The sum-form block: rows [0, m_tail4) x cols [0, n_main) against the
    // transpose of B's leading n_main rows, (k, n_main) row-major.
    const std::size_t m_tail4 = sum_rows(m);
    if (tl_pack.size() < k * n_main) tl_pack.resize(k * n_main);
    pack_transposed(b, n_main, k, tl_pack.data());
    if (n_main <= kMaxRegN) {
      kRegGemm[n_main - 1](a, k, 1, tl_pack.data(), n_main, c, n, m_tail4, k,
                           m_tail4, /*accumulate=*/true);
    } else {
      gemm_tiled(a, k, tl_pack.data(), n_main, c, n, m_tail4, k, n_main);
    }
    // Remainders straight off the original B: the nt layout makes them
    // contiguous dot products.
    nt_dot_range(a, b, c, k, n, 0, m_tail4, n_main, n);
    nt_dot_range(a, b, c, k, n, m_tail4, m, 0, n);
    return;
  }
  // Few output rows (or narrower than one panel): plain dot products.
  nt_dot_range(a, b, c, k, n, 0, m, 0, n);
}

void gemm_tn_impl(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  const bool blocked = m >= 2 * kMr && n >= kNr;
  if (n <= kMaxRegN) {
    // A^T row i is column i of A: element (i, p) at a[p * m + i].
    kRegGemm[n - 1](a, 1, m, b, n, c, n, m, k, blocked ? sum_rows(m) : 0,
                    accumulate);
    return;
  }
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (blocked) {
    // Pack A^T (k,m -> m,k) so the main kernel streams A rows contiguously.
    if (tl_pack.size() < k * m) tl_pack.resize(k * m);
    pack_transposed(a, k, m, tl_pack.data());
    gemm_tiled(tl_pack.data(), k, b, n, c, n, m, k, n);
    return;
  }
  // Small outputs (bias-sized gradients): stream B rows, accumulate into C.
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict arow = a + p * m;
    const float* __restrict brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* __restrict crow = c + i * n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

// ------------------------------------------------------ reference kernels --
// Plain scalar loops: the tests' correctness reference for the kernels
// above. Not used on any hot path.

void gemm_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void gemm_tn_naive_raw(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t m, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  out.ensure_shape(a.rows(), b.cols());
  gemm_naive_raw(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
                 false);
}

// -------------------------------------------------------- public kernels --

void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate) {
  gemm_impl(a, b, c, m, k, n, accumulate);
}

void gemm_nt_raw(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate) {
  gemm_nt_impl(a, b, c, m, k, n, accumulate);
}

void gemm_tn_raw(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t m, std::size_t n, bool accumulate) {
  gemm_tn_impl(a, b, c, k, m, n, accumulate);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  out.ensure_shape(a.rows(), b.cols());
  gemm_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(), false);
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  FEDTUNE_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  gemm_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(), true);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.cols());
  out.ensure_shape(a.rows(), b.rows());
  gemm_nt_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
               false);
}

void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.cols());
  FEDTUNE_CHECK(out.rows() == a.rows() && out.cols() == b.rows());
  gemm_nt_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
               true);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.rows() == b.rows());
  out.ensure_shape(a.cols(), b.cols());
  gemm_tn_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
               false);
}

void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.rows() == b.rows());
  FEDTUNE_CHECK(out.rows() == a.cols() && out.cols() == b.cols());
  gemm_tn_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
               true);
}

// ------------------------------------------------------------ elementwise --

void add_row_bias(Matrix& x, std::span<const float> bias) {
  FEDTUNE_CHECK(x.cols() == bias.size());
  const std::size_t n = x.cols();
  const float* __restrict bp = bias.data();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* __restrict row = x.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) row[c] += bp[c];
  }
}

void add_row_bias_relu(Matrix& x, std::span<const float> bias) {
  FEDTUNE_CHECK(x.cols() == bias.size());
  const std::size_t n = x.cols();
  const float* __restrict bp = bias.data();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* __restrict row = x.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) {
      const float v = row[c] + bp[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

void col_sums_acc(const Matrix& grad, std::span<float> bias_grad) {
  FEDTUNE_CHECK(grad.cols() == bias_grad.size());
  const std::size_t n = grad.cols();
  float* __restrict acc = bias_grad.data();
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    const float* __restrict row = grad.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) acc[c] += row[c];
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDTUNE_CHECK(x.size() == y.size());
  const float* __restrict xp = x.data();
  float* __restrict yp = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

void scale(std::span<float> x, float alpha) {
  float* __restrict xp = x.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) xp[i] *= alpha;
}

void relu(const Matrix& x, Matrix& y) {
  y.ensure_shape(x.rows(), x.cols());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void relu_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in) {
  FEDTUNE_CHECK(y.same_shape(grad_out));
  grad_in.ensure_shape(y.rows(), y.cols());
  const float* __restrict yp = y.data();
  const float* __restrict go = grad_out.data();
  float* __restrict gi = grad_in.data();
  const std::size_t n = y.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) gi[i] = yp[i] > 0.0f ? go[i] : 0.0f;
}

// tanh_forward lives in tanh_exact.cpp (compiled without FP contraction).

void tanh_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in) {
  FEDTUNE_CHECK(y.same_shape(grad_out));
  grad_in.ensure_shape(y.rows(), y.cols());
  const float* __restrict yp = y.data();
  const float* __restrict go = grad_out.data();
  float* __restrict gi = grad_in.data();
  const std::size_t n = y.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) gi[i] = go[i] * (1.0f - yp[i] * yp[i]);
}

// softmax_rows lives in exp_exact.cpp with its exp.

double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::int32_t> labels,
                             Matrix& grad_logits) {
  softmax_rows(logits, grad_logits);  // grad starts as probs
  return cross_entropy_from_probs(labels, grad_logits);
}

double cross_entropy_from_probs(std::span<const std::int32_t> labels,
                                Matrix& probs) {
  FEDTUNE_CHECK(probs.rows() == labels.size());
  const std::size_t batch = probs.rows();
  const std::size_t n = probs.cols();
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    FEDTUNE_CHECK(label < n);
    float* __restrict grow = probs.data() + r * n;
    loss -= std::log(std::max(grow[label], 1e-12f));
    grow[label] -= 1.0f;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) grow[c] *= inv_batch;
  }
  return loss / static_cast<double>(batch);
}

std::size_t argmax_row(const Matrix& m, std::size_t row) {
  FEDTUNE_CHECK(row < m.rows() && m.cols() > 0);
  const float* r = m.data() + row * m.cols();
  std::size_t best = 0;
  for (std::size_t c = 1; c < m.cols(); ++c) {
    if (r[c] > r[best]) best = c;
  }
  return best;
}

std::size_t count_errors(const Matrix& logits,
                         std::span<const std::int32_t> labels) {
  FEDTUNE_CHECK(logits.rows() == labels.size());
  std::size_t errors = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    if (argmax_row(logits, r) != static_cast<std::size_t>(labels[r])) ++errors;
  }
  return errors;
}

}  // namespace fedtune::ops
