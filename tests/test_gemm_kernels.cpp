// GEMM correctness. Every layout/accumulate variant must match the naive
// reference kernels to rounding across shapes that exercise the register
// blocks, the k-tile boundary (256) and odd remainders in every dimension,
// and must match the per-element spec in tensor/ops.cpp (sum form, chain
// form, dot products) bit for bit. Rows must not depend on the batch
// (the contract in tensor/ops.hpp).
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/matrix.hpp"

namespace fedtune {
namespace {

// (m, k, n) shapes: tiny, sub-block, exact-block, odd remainders, and
// k crossing the 256-wide cache tile.
const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> kShapes = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 1, 17},   {4, 16, 16},
    {5, 9, 15},  {7, 33, 19},  {8, 64, 32},  {12, 31, 48}, {16, 257, 16},
    {17, 5, 33}, {23, 300, 41}, {64, 64, 64}, {1, 300, 40},
};

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

// Tolerance scales with the reduction length: blocked kernels sum in a
// different order than the reference, so results differ by float rounding.
float tol(std::size_t k) { return 1e-5f * static_cast<float>(k + 1); }

std::vector<float> random_buf(std::size_t n, Rng& rng, bool with_zeros) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix in exact zeros: the old kernels special-cased them, the blocked
    // ones must not care.
    if (with_zeros && i % 7 == 0) {
      v[i] = 0.0f;
    } else {
      v[i] = static_cast<float>(rng.normal());
    }
  }
  return v;
}

TEST(GemmBlocked, MatchesNaiveNN) {
  Rng rng(42);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(m * k, rng, true);
      const auto b = random_buf(k * n, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_naive_raw(a.data(), b.data(), c_ref.data(), m, k, n, accumulate);
      ops::gemm_raw(a.data(), b.data(), c_new.data(), m, k, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "nn m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatchesNaiveNT) {
  Rng rng(43);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(m * k, rng, true);
      const auto b = random_buf(n * k, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_nt_naive_raw(a.data(), b.data(), c_ref.data(), m, k, n,
                             accumulate);
      ops::gemm_nt_raw(a.data(), b.data(), c_new.data(), m, k, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "nt m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatchesNaiveTN) {
  Rng rng(44);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(k * m, rng, true);
      const auto b = random_buf(k * n, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_tn_naive_raw(a.data(), b.data(), c_ref.data(), k, m, n,
                             accumulate);
      ops::gemm_tn_raw(a.data(), b.data(), c_new.data(), k, m, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "tn m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatrixWrappersMatchNaive) {
  Rng rng(45);
  const Matrix a = Matrix::randn(13, 37, rng);
  const Matrix b = Matrix::randn(37, 21, rng);
  Matrix ref, out;
  ops::gemm_naive(a, b, ref);
  ops::gemm(a, b, out);
  ASSERT_TRUE(ref.same_shape(out));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(ref.flat()[i], out.flat()[i], tol(37));
  }
}

TEST(GemmBlocked, FusedBiasReluMatchesSeparate) {
  Rng rng(46);
  Matrix x = Matrix::randn(9, 35, rng);
  Matrix y = x;
  std::vector<float> bias(35);
  for (auto& v : bias) v = static_cast<float>(rng.normal());

  ops::add_row_bias(x, bias);
  Matrix relu_ref;
  ops::relu(x, relu_ref);
  ops::add_row_bias_relu(y, bias);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(relu_ref.flat()[i], y.flat()[i]);
  }
}

// Row independence (the contract in tensor/ops.hpp). M sweeps 1 .. 4*6+5 so
// rows take every path: 6-row and 4-row micro-kernels, edge rows, dot
// products, packed and unpacked B. N = 24/40 leave an n-tail after the
// 16-wide panels; every K is within one k-tile.
using RawGemm = void (*)(const float*, const float*, float*, std::size_t,
                         std::size_t, std::size_t, bool);
constexpr std::size_t kMaxRows = 4 * 6 + 5;

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

// Row r of an m-row call with A's other rows replaced by `fill`.
std::vector<float> row_of_call(RawGemm kernel, const std::vector<float>& a,
                               const std::vector<float>& fill,
                               const std::vector<float>& b, std::size_t m,
                               std::size_t r, std::size_t k, std::size_t n) {
  std::vector<float> a_mixed(fill.begin(), fill.begin() + m * k);
  std::copy(a.begin() + r * k, a.begin() + (r + 1) * k,
            a_mixed.begin() + r * k);
  std::vector<float> c(m * n);
  kernel(a_mixed.data(), b.data(), c.data(), m, k, n, false);
  return {c.begin() + r * n, c.begin() + (r + 1) * n};
}

// Checks that row r of every m-row call equals the same row computed alone
// (m = 1) for m < alone_below, and in every case does not change when the
// other rows of A do. In the underflow case every product of an A row of
// -1e-30s with the 1e-30s of B rounds to -0, so the row's outputs are
// zeros whose sign depends on how they were summed.
void expect_rows_independent(RawGemm kernel, std::size_t alone_below,
                             const char* name) {
  Rng rng(47);
  for (const std::size_t k : {12, 16, 24, 256}) {
    for (const std::size_t n : {24, 32, 40}) {
      for (const bool underflow : {false, true}) {
      auto a = random_buf(kMaxRows * k, rng, true);
      const auto fill = random_buf(kMaxRows * k, rng, false);
      auto b = random_buf(k * n, rng, false);  // (k,n) or (n,k)
      if (underflow) {
        std::fill(b.begin(), b.end(), 1e-30f);
        for (std::size_t r = 1; r < kMaxRows; r += 3) {
          std::fill_n(a.begin() + r * k, k, -1e-30f);
        }
      }
      for (std::size_t m = 1; m <= kMaxRows; ++m) {
        std::vector<float> c_all(m * n);
        kernel(a.data(), b.data(), c_all.data(), m, k, n, false);
        for (std::size_t r = 0; r < m; ++r) {
          const std::vector<float> row(c_all.begin() + r * n,
                                       c_all.begin() + (r + 1) * n);
          const auto mixed = row_of_call(kernel, a, fill, b, m, r, k, n);
          ASSERT_EQ(bits(row), bits(mixed))
              << name << " row " << r << " of m=" << m << " k=" << k
              << " n=" << n << " underflow=" << underflow
              << " changed with the other rows";
          if (m < alone_below) {
            std::vector<float> alone(n);
            kernel(a.data() + r * k, b.data(), alone.data(), 1, k, n, false);
            ASSERT_EQ(bits(row), bits(alone))
                << name << " row " << r << " of m=" << m << " k=" << k
                << " n=" << n << " underflow=" << underflow
                << " differs from the row alone";
          }
        }
      }
      }
    }
  }
}

TEST(GemmBlocked, RowsIndependentOfBatch) {
  expect_rows_independent(&ops::gemm_raw, kMaxRows + 1, "gemm_raw");
}

// gemm_nt_raw sums k sequentially in its micro-kernel (m >= 2*6) but in 16
// interleaved lanes in its dot-product path (fewer rows, and the last
// m % 6 < 4 rows), so a row matches the row alone only below the packing
// threshold.
TEST(GemmBlocked, NtRowsIndependentOfOtherRows) {
  expect_rows_independent(&ops::gemm_nt_raw, 2 * 6, "gemm_nt_raw");
}

// The signed-zero case of the row contract: a 6-row block once summed the
// underflowing products as 0 + (-0) = +0 while a row alone chained them to
// -0. Every zero now comes out +0, for the register kernels (n <= 32) and
// gemm_tiled (n > 32) alike.
TEST(GemmBlocked, UnderflowingProductsGivePositiveZero) {
  constexpr std::size_t k = 4;
  for (const std::size_t n : {16, 40}) {
    const std::vector<float> b(k * n, 1e-30f);
    for (const std::size_t m : {1, 6, 7}) {
      const std::vector<float> a(m * k, -1e-30f);
      std::vector<float> c(m * n, 1.0f);
      ops::gemm_raw(a.data(), b.data(), c.data(), m, k, n, false);
      EXPECT_EQ(bits(c), std::vector<std::uint32_t>(m * n, 0u))
          << "m=" << m << " n=" << n;
    }
  }
}

// ------------------------------------------------- per-element spec --
// Each element of C is computed in one of three forms (tensor/ops.cpp):
//   sum:   c (+)= one accumulator per 256-wide k-tile, each started at 0;
//   chain: every product added straight into c (0 + c at the end when not
//          accumulating);
//   dot:   c (+)= dot_reference(row of A, row of B) (nt only).
// Which form an element takes depends on the layout, m, n and its
// position. The references use the library's `acc += a * b` so that they
// contract to fused multiply-adds exactly where the kernels do (operands
// are loaded first, so sanitizer checks never split a multiply from its
// add), and loop over columns so every product is an element-wise
// multiply-add, never a reduction.
enum class Layout { kNN, kNT, kTN };

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kNN: return "nn";
    case Layout::kNT: return "nt";
    case Layout::kTN: return "tn";
  }
  return "?";
}

// The dot form's summation order, spelled out independently of the
// library's code: 16 lane sums with element p fused into lane p % 16, the
// k % 16 tail fused into lane 0 in order, then 0 + lane 0 + ... + lane 15
// in order. Explicit std::fma calls, so it does not follow the codegen.
float dot_reference(const float* a, const float* b, std::size_t k) {
  float lane[16] = {};
  const std::size_t k16 = k - k % 16;
  for (std::size_t p = 0; p < k; ++p) {
    float& l = lane[p < k16 ? p % 16 : 0];
    l = std::fma(a[p], b[p], l);
  }
  float sum = 0.0f;
  for (const float l : lane) sum = sum + l;
  return sum;
}

// Rows of gemm_tiled's 6-row and 4-row blocks.
std::size_t sum_rows(std::size_t m) {
  const std::size_t m_main = m - m % 6;
  return m - m_main >= 4 ? m_main + 4 : m_main;
}

// Every element of C (rows, n) in each form, from a (rows,k) and b (k,n)
// row-major (b_nk is its transpose) and the starting C. The dot form is
// only computed for nt.
struct Forms {
  std::vector<float> sum, chain, dot;
};

Forms spec_forms(Layout layout, const std::vector<float>& a,
                 const std::vector<float>& b, const std::vector<float>& b_nk,
                 const std::vector<float>& c0, std::size_t rows,
                 std::size_t k, std::size_t n, bool accumulate) {
  Forms f{std::vector<float>(rows * n), std::vector<float>(rows * n),
          std::vector<float>(rows * n)};
  std::vector<float> tile(n);
  for (std::size_t i = 0; i < rows; ++i) {
    float* sums = f.sum.data() + i * n;
    float* chain = f.chain.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      sums[j] = accumulate ? c0[i * n + j] : 0.0f;
      chain[j] = sums[j];
    }
    for (std::size_t p0 = 0; p0 < k; p0 += 256) {
      std::fill(tile.begin(), tile.end(), 0.0f);
      for (std::size_t p = p0; p < std::min(k, p0 + 256); ++p) {
        const float av = a[i * k + p];
        for (std::size_t j = 0; j < n; ++j) {
          const float bv = b[p * n + j];
          float acc = tile[j];
          acc += av * bv;
          tile[j] = acc;
        }
      }
      for (std::size_t j = 0; j < n; ++j) sums[j] += tile[j];
    }
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      for (std::size_t j = 0; j < n; ++j) {
        const float bv = b[p * n + j];
        float acc = chain[j];
        acc += av * bv;
        chain[j] = acc;
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!accumulate) chain[j] = 0.0f + chain[j];
      if (layout != Layout::kNT) continue;
      f.dot[i * n + j] = (accumulate ? c0[i * n + j] : 0.0f) +
                         dot_reference(&a[i * k], &b_nk[j * k], k);
    }
  }
  return f;
}

// The form of element (i, j) of an (m, n) C.
const std::vector<float>& form_of(const Forms& f, Layout layout,
                                  std::size_t m, std::size_t n, std::size_t i,
                                  std::size_t j) {
  const std::size_t n_main = n - n % 16;
  bool blocked = true;  // whether rows [0, sum_rows(m)) exist as blocks
  if (layout == Layout::kTN) blocked = m >= 12 && n >= 16;
  if (layout == Layout::kNT) blocked = m >= 12 && n_main > 0;
  const bool sum = blocked && i < sum_rows(m) && j < n_main;
  if (sum) return f.sum;
  return layout == Layout::kNT ? f.dot : f.chain;
}

void run_kernel(Layout layout, const std::vector<float>& a,
                const std::vector<float>& b, std::vector<float>& c,
                std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  switch (layout) {
    case Layout::kNN:
      ops::gemm_raw(a.data(), b.data(), c.data(), m, k, n, accumulate);
      break;
    case Layout::kNT:
      ops::gemm_nt_raw(a.data(), b.data(), c.data(), m, k, n, accumulate);
      break;
    case Layout::kTN:
      ops::gemm_tn_raw(a.data(), b.data(), c.data(), k, m, n, accumulate);
      break;
  }
}

// Every layout x accumulate x n over the register kernels' widths (1..32)
// and two of gemm_tiled's, for the given rows and depths. A call with m
// rows uses the first m rows of one (m_max, k) A, so each row's forms are
// computed once.
void expect_spec(const std::vector<std::size_t>& ms,
                 const std::vector<std::size_t>& ks,
                 const std::vector<Layout>& layouts, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> ns;
  for (std::size_t n = 1; n <= 32; ++n) ns.push_back(n);
  ns.push_back(33);
  ns.push_back(40);
  const std::size_t m_max = *std::max_element(ms.begin(), ms.end());
  for (const Layout layout : layouts) {
    for (const std::size_t k : ks) {
      for (const std::size_t n : ns) {
        const auto a_full = random_buf(m_max * k, rng, true);  // (m_max,k)
        const auto b_kn = random_buf(k * n, rng, false);
        const auto c0 = random_buf(m_max * n, rng, false);
        std::vector<float> b_nk(n * k);
        for (std::size_t p = 0; p < k; ++p) {
          for (std::size_t j = 0; j < n; ++j) b_nk[j * k + p] = b_kn[p * n + j];
        }
        const auto& b = layout == Layout::kNT ? b_nk : b_kn;
        for (const bool accumulate : {false, true}) {
          const Forms f = spec_forms(layout, a_full, b_kn, b_nk, c0, m_max, k,
                                     n, accumulate);
          for (const std::size_t m : ms) {
            std::vector<float> a(a_full.begin(), a_full.begin() + m * k);
            if (layout == Layout::kTN) {  // A is (k,m)
              for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t p = 0; p < k; ++p) {
                  a[p * m + i] = a_full[i * k + p];
                }
              }
            }
            std::vector<float> c(c0.begin(), c0.begin() + m * n);
            run_kernel(layout, a, b, c, m, k, n, accumulate);
            std::vector<float> want(m * n);
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = 0; j < n; ++j) {
                want[i * n + j] = form_of(f, layout, m, n, i, j)[i * n + j];
              }
            }
            ASSERT_EQ(bits(c), bits(want))
                << layout_name(layout) << " m=" << m << " k=" << k
                << " n=" << n << " accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

TEST(GemmSpec, EveryElementMatchesItsForm) {
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 130; ++m) ms.push_back(m);
  expect_spec(ms, {1, 10, 16, 24, 32},
              {Layout::kNN, Layout::kNT, Layout::kTN}, 48);
}

// With one row, gemm_nt_raw is only dot products: each output is the
// reference dot, for every k across whole 16-lane blocks and every tail.
TEST(GemmSpec, SingleRowNtIsTheReferenceDot) {
  constexpr std::size_t n = 3;
  Rng rng(50);
  for (std::size_t k = 0; k <= 300; ++k) {
    const auto a = random_buf(k, rng, true);
    const auto b = random_buf(n * k, rng, false);
    std::vector<float> c(n, 1.0f), want(n);
    ops::gemm_nt_raw(a.data(), b.data(), c.data(), 1, k, n, false);
    for (std::size_t j = 0; j < n; ++j) {
      want[j] = 0.0f + dot_reference(a.data(), b.data() + j * k, k);
    }
    ASSERT_EQ(bits(c), bits(want)) << "k=" << k;
  }
}

// Deep reductions cross the 256-wide k-tile: the tn weight gradients sum
// over a whole minibatch of positions.
TEST(GemmSpec, DeepReductionsMatchTheirForm) {
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 30; ++m) ms.push_back(m);
  ms.push_back(130);
  expect_spec(ms, {255, 256, 257, 700}, {Layout::kTN}, 49);
  expect_spec(ms, {300}, {Layout::kNN, Layout::kNT}, 50);
}

}  // namespace
}  // namespace fedtune
