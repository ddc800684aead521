// Blocked-GEMM correctness: every layout/accumulate variant must match the
// retained naive reference kernels across shapes that exercise the register
// block (4x16), the k-tile boundary (256), and odd remainders in every
// dimension.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

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
// other rows of A do.
void expect_rows_independent(RawGemm kernel, std::size_t alone_below,
                             const char* name) {
  Rng rng(47);
  for (const std::size_t k : {12, 16, 24, 256}) {
    for (const std::size_t n : {24, 32, 40}) {
      const auto a = random_buf(kMaxRows * k, rng, true);
      const auto fill = random_buf(kMaxRows * k, rng, false);
      const auto b = random_buf(k * n, rng, false);  // (k,n) or (n,k)
      for (std::size_t m = 1; m <= kMaxRows; ++m) {
        std::vector<float> c_all(m * n);
        kernel(a.data(), b.data(), c_all.data(), m, k, n, false);
        for (std::size_t r = 0; r < m; ++r) {
          const std::vector<float> row(c_all.begin() + r * n,
                                       c_all.begin() + (r + 1) * n);
          const auto mixed = row_of_call(kernel, a, fill, b, m, r, k, n);
          ASSERT_EQ(bits(row), bits(mixed))
              << name << " row " << r << " of m=" << m << " k=" << k
              << " n=" << n << " changed with the other rows";
          if (m < alone_below) {
            std::vector<float> alone(n);
            kernel(a.data() + r * k, b.data(), alone.data(), 1, k, n, false);
            ASSERT_EQ(bits(row), bits(alone))
                << name << " row " << r << " of m=" << m << " k=" << k
                << " n=" << n << " differs from the row alone";
          }
        }
      }
    }
  }
}

TEST(GemmBlocked, RowsIndependentOfBatch) {
  expect_rows_independent(&ops::gemm_raw, kMaxRows + 1, "gemm_raw");
}

// gemm_nt_raw sums k sequentially in its micro-kernel (m >= 2*6) but by a
// SIMD reduction in its dot-product path (fewer rows, and the last m % 6 < 4
// rows), so a row matches the row alone only below the packing threshold.
TEST(GemmBlocked, NtRowsIndependentOfOtherRows) {
  expect_rows_independent(&ops::gemm_nt_raw, 2 * 6, "gemm_nt_raw");
}

}  // namespace
}  // namespace fedtune
