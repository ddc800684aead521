// ops::tanh_forward: a branch-free port of the fdlibm tanhf and expm1f that
// glibc ships (sysdeps/ieee754/flt-32/s_tanhf.c and s_expm1f.c), written so
// GCC vectorizes the loop. Every path of the scalar code is computed and the
// taken one picked, with the same float operations in the same order, so
// each element is bitwise the libm result. tests/test_tanh_exact.cpp pins
// the branch boundaries and a sweep checksum; its opt-in exhaustive case
// compares all 2^32 inputs against std::tanh.
//
// This file must be compiled with -ffp-contract=off (CMakeLists.txt sets it
// for this file only): a fused multiply-add rounds once where fdlibm rounds
// twice, which changes about 150k of the 2^32 results.
#include <bit>
#include <cstdint>

#include "tensor/ops.hpp"

namespace fedtune::ops {
namespace {

constexpr float kOne = 1.0f;
constexpr float kTwo = 2.0f;
constexpr float kTiny = 1.0e-30f;
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

inline std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
inline float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

// c ? a : b through bit masks. Both operands are always computed, and the
// optimizer gets no conditional to thread into branches, which would keep
// GCC from vectorizing the loop.
inline std::uint32_t pick(bool c, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t m = 0u - static_cast<std::uint32_t>(c);
  return (a & m) | (b & ~m);
}
inline float pick(bool c, float a, float b) {
  return from_bits(pick(c, bits(a), bits(b)));
}
inline std::int32_t pick(bool c, std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(pick(c, static_cast<std::uint32_t>(a),
                                        static_cast<std::uint32_t>(b)));
}

// fdlibm expm1f for the arguments tanhf passes it, x in (-2, 44). The
// |x| >= 27*ln2 filter only returns early for x <= -27*ln2 or |x| >= 88.7,
// so it is left out; lanes outside the range get a value the caller drops.
inline float expm1_fdlibm(float x) {
  const std::uint32_t hx = bits(x) & 0x7fffffffu;
  const bool neg = (bits(x) >> 31) != 0;

  // Argument reduction x = k*ln2 + (hi - lo) when |x| > 0.5*ln2. Below
  // 1.5*ln2, fdlibm takes k = +-1 and hi = x -+ ln2_hi, lo = +-ln2_lo, which
  // is bitwise x - k*ln2_hi and k*ln2_lo. The float is clamped before the
  // int conversion so that no lane converts an out-of-range value.
  float kf = kInvLn2 * x + pick(neg, -0.5f, 0.5f);
  kf = pick(kf > -256.0f, kf, -256.0f);
  kf = pick(kf < 256.0f, kf, 256.0f);
  std::int32_t k = static_cast<std::int32_t>(kf);
  k = pick(hx < 0x3f851592u, pick(neg, -1, 1), k);
  k = pick(hx > 0x3eb17218u, k, 0);
  const float kt = static_cast<float>(k);
  const float hi = x - kt * kLn2Hi;
  const float lo = kt * kLn2Lo;
  const float xr = pick(k == 0, x, hi - lo);
  const float c = (hi - xr) - lo;

  // x is now in the primary range.
  const float hfx = 0.5f * xr;
  const float hxs = xr * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - xr * t));
  const float y_k0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c);
  e -= hxs;
  const float y_km1 = 0.5f * (xr - e) - 0.5f;
  const float y_k1 = pick(xr < -0.25f, -2.0f * (e - (xr + 0.5f)),
                          kOne + 2.0f * (xr - e));
  // The remaining cases add k to the exponent of y. k never reaches 128
  // here, so fdlibm's 2^127 rescale is left out.
  const std::uint32_t scale = static_cast<std::uint32_t>(k) << 23;
  // k <= -2 or k > 56: exp(x) - 1 = 2^k * (1 - (e - x)) - 1.
  const float y_wide = from_bits(bits(kOne - (e - xr)) + scale) - kOne;
  // 2 <= k < 23: (1 - 2^-k) - (e - x), scaled by 2^k.
  const std::uint32_t ks = static_cast<std::uint32_t>(pick(k < 0, 0, k & 31));
  const float one_minus = from_bits(0x3f800000u - (0x1000000u >> ks));
  const float y_mid = from_bits(bits(one_minus - (e - xr)) + scale);
  // 23 <= k <= 56: (x - (e + 2^-k)) + 1, scaled by 2^k.
  const float inv_2k = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);
  float y_high = xr - (e + inv_2k);
  y_high += kOne;
  y_high = from_bits(bits(y_high) + scale);

  float y = pick(k < 23, y_mid, y_high);
  y = pick((k <= -2) | (k > 56), y_wide, y);
  y = pick(k == 1, y_k1, y);
  y = pick(k == -1, y_km1, y);
  y = pick(k == 0, y_k0, y);
  // |x| < 2^-25: fdlibm returns x (x - ((huge + x) - (huge + x))).
  return pick(hx < 0x33000000u, x, y);
}

inline float tanh_fdlibm(float x) {
  const std::uint32_t jx = bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  const float ax = from_bits(ix);

  // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); below: -t/(t + 2), t = expm1(-2|x|).
  const bool big = ix >= 0x3f800000u;
  const float t = expm1_fdlibm(pick(big, kTwo * ax, -kTwo * ax));
  const float q = pick(big, kTwo, -t) / (t + kTwo);
  float z = pick(big, kOne - q, q);
  z = pick(ix < 0x41b00000u, z, kOne - kTiny);  // |x| >= 22: +-1
  float r = pick(neg, -z, z);
  r = pick(ix < 0x24000000u, x * (kOne + x), r);  // |x| < 2^-55, and +-0
  // +-inf gives +-1, NaN stays NaN.
  const float special = pick(neg, kOne / x - kOne, kOne / x + kOne);
  return pick(ix < 0x7f800000u, r, special);
}

}  // namespace

void tanh_forward(const Matrix& x, Matrix& y) {
  y.ensure_shape(x.rows(), x.cols());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_fdlibm(in[i]);
}

}  // namespace fedtune::ops
