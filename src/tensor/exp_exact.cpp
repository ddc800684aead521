// ops::exp_forward and ops::softmax_rows: a vectorizable port of the expf
// that glibc 2.36 ships (sysdeps/ieee754/flt-32/e_expf.c with
// EXP2F_TABLE_BITS = 5, and the table and coefficients of e_exp2f_data.c).
// For |x| < 88 the port runs expf's main path with the same double
// operations in the same order, written branch-free so GCC vectorizes the
// loop; every other input (|x| >= 88, infinities, NaN) takes expf's special
// path, and those lanes are recomputed with std::exp. tests/test_expf_exact.cpp
// pins results and a sweep checksum; its opt-in exhaustive case compares all
// 2^32 inputs against std::exp.
//
// Unlike tanh_exact.cpp, this file keeps the compiler's default FP
// contraction: glibc selects its FMA build of expf (__expf_fma) on hosts
// with FMA, whose multiply-adds are fused. Compiled without contraction,
// the port differs from it on two inputs (pinned in the test).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/ops.hpp"

namespace fedtune::ops {
namespace {

constexpr std::size_t kTableBits = 5;
constexpr std::uint64_t kTableSize = std::uint64_t{1} << kTableBits;

// kTable[i] = bits(2^(i/32)) - (i << 47): adding k << 47 to entry k % 32
// gives the bits of 2^(k/32) for any integer |k| < 150 * 32.
constexpr std::uint64_t kTable[kTableSize] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kTableSize;
// Adding then subtracting kShift rounds a double to an integer, and the
// sum's low mantissa bits hold that integer.
constexpr double kShift = 0x1.8p+52;
// poly_scaled: 2^(r/N) ~= C0*r^3 + C1*r^2 + C2*r + 1.
constexpr double kC0 = 0x1.c6af84b912394p-5 / kTableSize / kTableSize /
                       kTableSize;
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / kTableSize / kTableSize;
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / kTableSize;

// expf's main path, exact for |x| < 88 (expf's special path starts at
// |x| >= 88, bitwise).
inline float expf_main(float x) {
  const double xd = x;
  // x*N/ln2 = k + r with r in [-1/2, 1/2] and integer k.
  double z = kInvLn2N * xd;
  double kd = z + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  const double r = z - kd;
  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1)
  std::uint64_t t = kTable[ki % kTableSize];
  t += ki << (52 - kTableBits);
  const double s = std::bit_cast<double>(t);
  z = kC0 * r + kC1;
  const double r2 = r * r;
  double y = kC2 * r + 1;
  y = z * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

inline bool on_main_path(float x) { return std::fabs(x) < 88.0f; }

// x on the main path, else +0, through a bit mask: a conditional would let
// GCC fold expf_main(0) and branch around the table load, which keeps the
// loop from vectorizing.
inline float main_path_input(float x) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(on_main_path(x));
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) & keep);
}

// y[i] = exp(x[i] - shift). The first loop vectorizes; lanes off the main
// path are fed 0 there (so no lane converts an out-of-range double) and
// recomputed by the second.
void exp_shifted(const float* __restrict x, float shift, float* __restrict y,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = expf_main(main_path_input(x[i] - shift));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i] - shift;
    if (!on_main_path(v)) y[i] = std::exp(v);
  }
}

}  // namespace

void exp_forward(std::span<const float> x, std::span<float> y) {
  FEDTUNE_CHECK(x.size() == y.size());
  exp_shifted(x.data(), 0.0f, y.data(), x.size());
}

void softmax_rows(const Matrix& logits, Matrix& probs) {
  probs.ensure_shape(logits.rows(), logits.cols());
  const std::size_t n = logits.cols();
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.data() + r * n;
    float* out = probs.data() + r * n;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, in[c]);
    exp_shifted(in, mx, out, n);
    float total = 0.0f;
    for (std::size_t c = 0; c < n; ++c) total += out[c];
    const float inv = 1.0f / total;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) out[c] *= inv;
  }
}

}  // namespace fedtune::ops
