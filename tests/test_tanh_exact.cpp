// ops::tanh_forward is a port of glibc's fdlibm tanhf (tensor/tanh_exact.cpp)
// and must return libm's bits. These cases pin them: both sides of every
// branch threshold, the special values, inputs where a build with FP
// contraction differs, and a checksum over a strided sweep. The opt-in
// exhaustive case compares all 2^32 inputs against std::tanh; run it with
//
//   test_tanh_exact --gtest_also_run_disabled_tests
//                   --gtest_filter='TanhExact.DISABLED_*'
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "tensor/ops.hpp"

namespace fedtune::ops {
namespace {

using Pin = std::pair<std::uint32_t, std::uint32_t>;  // input bits, tanh bits

float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }
std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

// tanh_forward over `inputs` as one row, so the vector body and its
// remainder loop both run.
std::vector<std::uint32_t> tanh_bits(
    const std::vector<std::uint32_t>& inputs) {
  Matrix x(1, inputs.size()), y;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    x(0, i) = from_bits(inputs[i]);
  }
  tanh_forward(x, y);
  std::vector<std::uint32_t> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = bits(y(0, i));
  return out;
}

std::uint32_t tanh_bits(std::uint32_t input) {
  return tanh_bits(std::vector<std::uint32_t>{input})[0];
}

// Checks each pin in one batch, alone, and negated (tanhf is odd bitwise:
// it works on |x| and flips the sign last).
void expect_pins(const std::vector<Pin>& pins) {
  std::vector<std::uint32_t> inputs, negated;
  for (const auto& [in, out] : pins) {
    inputs.push_back(in);
    negated.push_back(in ^ 0x80000000u);
  }
  const auto batch = tanh_bits(inputs);
  const auto batch_negated = tanh_bits(negated);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto [in, out] = pins[i];
    EXPECT_EQ(batch[i], out) << std::hex << "tanh(0x" << in << ")";
    EXPECT_EQ(tanh_bits(in), out) << std::hex << "alone: tanh(0x" << in << ")";
    EXPECT_EQ(batch_negated[i], out ^ 0x80000000u)
        << std::hex << "tanh(-0x" << in << ")";
  }
}

// Thresholds of tanhf on |x| (ix: 2^-55, 1, 22) and of expm1f on its
// argument (hx: 2^-25, 0.5*ln2, 1.5*ln2, 27*ln2), both as inputs and as the
// |x| at which tanhf's argument 2|x| reaches them, plus the first inputs
// whose expm1f reduction takes k = -3, 23 and 57; each +-2 ulp.
TEST(TanhExact, BranchBoundariesPinned) {
  expect_pins({
      // 0x24000000
      {0x23fffffe, 0x23fffffe}, {0x23ffffff, 0x23ffffff},
      {0x24000000, 0x24000000}, {0x24000001, 0x24000001},
      {0x24000002, 0x24000002},
      // 0x32800000
      {0x327ffffe, 0x327ffffe}, {0x327fffff, 0x327fffff},
      {0x32800000, 0x32800000}, {0x32800001, 0x32800001},
      {0x32800002, 0x32800002},
      // 0x33000000
      {0x32fffffe, 0x32fffffe}, {0x32ffffff, 0x32ffffff},
      {0x33000000, 0x33000000}, {0x33000001, 0x33000002},
      {0x33000002, 0x33000003},
      // 0x3e317218
      {0x3e317216, 0x3e2fb0cb}, {0x3e317217, 0x3e2fb0cc},
      {0x3e317218, 0x3e2fb0cd}, {0x3e317219, 0x3e2fb0cd},
      {0x3e31721a, 0x3e2fb0cf},
      // 0x3eb17218
      {0x3eb17216, 0x3eaaaaa9}, {0x3eb17217, 0x3eaaaaaa},
      {0x3eb17218, 0x3eaaaaab}, {0x3eb17219, 0x3eaaaaac},
      {0x3eb1721a, 0x3eaaaaac},
      // 0x3f051592
      {0x3f051590, 0x3ef486f5}, {0x3f051591, 0x3ef486f8},
      {0x3f051592, 0x3ef486f8}, {0x3f051593, 0x3ef486fb},
      {0x3f051594, 0x3ef486fc},
      // 0x3f5dce9e
      {0x3f5dce9c, 0x3f331636}, {0x3f5dce9d, 0x3f331638},
      {0x3f5dce9e, 0x3f331638}, {0x3f5dce9f, 0x3f331639},
      {0x3f5dcea0, 0x3f331639},
      // 0x3f800000
      {0x3f7ffffe, 0x3f42f7d5}, {0x3f7fffff, 0x3f42f7d5},
      {0x3f800000, 0x3f42f7d6}, {0x3f800001, 0x3f42f7d6},
      {0x3f800002, 0x3f42f7d7},
      // 0x3f851592
      {0x3f851590, 0x3f471c70}, {0x3f851591, 0x3f471c71},
      {0x3f851592, 0x3f471c72}, {0x3f851593, 0x3f471c72},
      {0x3f851594, 0x3f471c73},
      // 0x40f98872
      {0x40f98870, 0x3f7ffffa}, {0x40f98871, 0x3f7ffffa},
      {0x40f98872, 0x3f7ffffa}, {0x40f98873, 0x3f7ffffa},
      {0x40f98874, 0x3f7ffffa},
      // 0x4115b844
      {0x4115b842, 0x3f800000}, {0x4115b843, 0x3f800000},
      {0x4115b844, 0x3f800000}, {0x4115b845, 0x3f800000},
      {0x4115b846, 0x3f800000},
      // 0x4195b844
      {0x4195b842, 0x3f800000}, {0x4195b843, 0x3f800000},
      {0x4195b844, 0x3f800000}, {0x4195b845, 0x3f800000},
      {0x4195b846, 0x3f800000},
      // 0x419ca6b9
      {0x419ca6b7, 0x3f800000}, {0x419ca6b8, 0x3f800000},
      {0x419ca6b9, 0x3f800000}, {0x419ca6ba, 0x3f800000},
      {0x419ca6bb, 0x3f800000},
      // 0x41b00000
      {0x41affffe, 0x3f800000}, {0x41afffff, 0x3f800000},
      {0x41b00000, 0x3f800000}, {0x41b00001, 0x3f800000},
      {0x41b00002, 0x3f800000},
  });
}

TEST(TanhExact, SpecialValuesPinned) {
  expect_pins({
      {0x00000000, 0x00000000},  // +0 (and -0 by the negation)
      {0x00000001, 0x00000001},  // smallest subnormal
      {0x007fffff, 0x007fffff},  // largest subnormal
      {0x00800000, 0x00800000},  // smallest normal
      {0x7f7fffff, 0x3f800000},  // largest finite
      {0x7f800000, 0x3f800000},  // +inf (and -inf -> -1)
  });
  for (const std::uint32_t nan : {0x7fc00000u, 0xffc00000u, 0x7f800001u}) {
    EXPECT_TRUE(std::isnan(from_bits(tanh_bits(nan)))) << std::hex << nan;
  }
}

// With multiply-adds contracted to FMA, the port returns the bits in the
// comments: tanh_exact.cpp must be compiled with -ffp-contract=off.
TEST(TanhExact, UncontractedResultsPinned) {
  expect_pins({
      {0x3dc5c4b3, 0x3dc527e9},  // contracted: 0x3dc527ea
      {0x3a7fcc41, 0x3a7fcc3c},  // contracted: 0x3a7fcc3b
      {0x3e2e148f, 0x3e2c6c29},  // contracted: 0x3e2c6c27
      {0x3f000059, 0x3eec9b2b},  // contracted: 0x3eec9b29
      {0x3f0194d6, 0x3eef158f},  // contracted: 0x3eef1592
      {0x3f407d73, 0x3f22e3e0},  // contracted: 0x3f22e3de
      {0x3f86e9f3, 0x3f488a6d},  // contracted: 0x3f488a6e
      {0x3fc196f4, 0x3f68493c},  // contracted: 0x3f68493b
      {0x409735cd, 0x3f7ff5b2},  // contracted: 0x3f7ff5b1
  });
}

// CRC-32 of tanh over every 4093rd bit pattern (1,049,345 inputs across all
// exponents and both signs), NaN results folded to one pattern. Recorded
// from glibc 2.36's tanhf.
TEST(TanhExact, StridedSweepChecksumPinned) {
  constexpr std::uint64_t kStride = 4093;
  std::vector<std::uint32_t> inputs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += kStride) {
    inputs.push_back(static_cast<std::uint32_t>(u));
  }
  ASSERT_EQ(inputs.size(), 1049345u);
  std::uint32_t crc = 0;
  for (std::uint32_t r : tanh_bits(inputs)) {
    if (std::isnan(from_bits(r))) r = 0x7fc00000u;
    crc = crc32(&r, sizeof r, crc);
  }
  EXPECT_EQ(crc, 0x045a4950u);
}

// Opt-in (DISABLED_): every float against this host's std::tanh, bitwise,
// NaN against NaN. About 15 s on 4 cores; CI runs it as its own step.
TEST(TanhExact, DISABLED_MatchesLibmOnAllInputs) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::atomic<std::uint64_t> next{0}, mismatches{0};
  std::atomic<std::uint64_t> first_bad{~std::uint64_t{0}};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      Matrix x(1, kChunk), y;
      for (std::uint64_t c = next++; c < kChunks; c = next++) {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          x(0, i) = from_bits(static_cast<std::uint32_t>(c * kChunk + i));
        }
        tanh_forward(x, y);
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          const float want = std::tanh(x(0, i));
          const float got = y(0, i);
          if (bits(got) == bits(want) ||
              (std::isnan(got) && std::isnan(want))) {
            continue;
          }
          ++mismatches;
          std::uint64_t seen = first_bad.load();
          while (c * kChunk + i < seen &&
                 !first_bad.compare_exchange_weak(seen, c * kChunk + i)) {
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << std::hex << "first mismatching input: 0x" << first_bad.load();
}

}  // namespace
}  // namespace fedtune::ops
