// ops::exp_forward is a port of glibc's expf (tensor/exp_exact.cpp) and
// must return libm's bits; ops::softmax_rows takes its exp from the port.
// These cases pin the port: the special values, both sides of the |x| = 88
// switch to std::exp and of overflow, subnormal and zero results, inputs
// where a build without FP contraction differs, and a checksum over a
// strided sweep. The opt-in exhaustive case compares all 2^32 inputs
// against std::exp; run it with
//
//   test_expf_exact --gtest_also_run_disabled_tests
//                   --gtest_filter='ExpfExact.DISABLED_*'
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "tensor/ops.hpp"

namespace fedtune::ops {
namespace {

using Pin = std::pair<std::uint32_t, std::uint32_t>;  // input bits, exp bits

float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }
std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

// exp_forward over `inputs` as one span, so the vector body and its
// remainder loop both run.
std::vector<std::uint32_t> exp_bits(const std::vector<std::uint32_t>& inputs) {
  std::vector<float> x(inputs.size()), y(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) x[i] = from_bits(inputs[i]);
  exp_forward(x, y);
  std::vector<std::uint32_t> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = bits(y[i]);
  return out;
}

// Checks each pin in one batch and alone.
void expect_pins(const std::vector<Pin>& pins) {
  std::vector<std::uint32_t> inputs;
  for (const auto& pin : pins) inputs.push_back(pin.first);
  const auto batch = exp_bits(inputs);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto [in, out] = pins[i];
    EXPECT_EQ(batch[i], out) << std::hex << "exp(0x" << in << ")";
    EXPECT_EQ(exp_bits({in})[0], out) << std::hex << "alone: exp(0x" << in << ")";
  }
}

TEST(ExpfExact, SpecialValuesPinned) {
  expect_pins({
      {0x00000000, 0x3f800000},  // +0
      {0x80000000, 0x3f800000},  // -0
      {0x00000001, 0x3f800000},  // smallest subnormal
      {0x32000000, 0x3f800000},  // 2^-27
      {0x3f800000, 0x402df854},  // 1
      {0xbf800000, 0x3ebc5ab2},  // -1
      {0x41200000, 0x46ac14ee},  // 10
      {0x7f800000, 0x7f800000},  // +inf
      {0xff800000, 0x00000000},  // -inf
      {0x7f7fffff, 0x7f800000},  // largest finite
      {0xff7fffff, 0x00000000},  // lowest finite
  });
  for (const std::uint32_t nan : {0x7fc00000u, 0xffc00000u, 0x7f800001u}) {
    EXPECT_TRUE(std::isnan(from_bits(exp_bits({nan})[0]))) << std::hex << nan;
  }
}

// |x| = 88 (0x42b00000) is where expf leaves its main path and the port
// calls std::exp; 0x42b17217 is the last input below overflow.
TEST(ExpfExact, PathBoundariesPinned) {
  expect_pins({
      {0x42affffe, 0x7ef881be}, {0x42afffff, 0x7ef8823b},
      {0x42b00000, 0x7ef882b7}, {0x42b00001, 0x7ef88333},
      {0xc2affffe, 0x0041ee06}, {0xc2afffff, 0x0041ede5},
      {0xc2b00000, 0x0041edc4}, {0xc2b00001, 0x0041eda3},
      {0x42b17217, 0x7f7fff84}, {0x42b17218, 0x7f800000},
  });
}

// Results below the smallest normal float: from x = -87.3 through the last
// input whose exp rounds to the smallest subnormal (0xc2cff1b4, about
// -103.97), on both paths.
TEST(ExpfExact, SubnormalResultsPinned) {
  expect_pins({
      {0xc2ae999a, 0x0084c38b},  // -87.3
      {0xc2aeac4f, 0x00800026}, {0xc2aeac50, 0x007fffe6},
      {0xc2aeac51, 0x007fffa6},
      {0xc2be0000, 0x00000f64},  // -95
      {0xc2c80000, 0x0000001b},  // -100
      {0xc2ce8a3d, 0x00000001},  // -103.27
      {0xc2ce8f5c, 0x00000001},  // -103.28
      {0xc2cfcccd, 0x00000001},  // -103.9
      {0xc2cff1b4, 0x00000001}, {0xc2cff1b5, 0x00000000},
      {0xc2cff1b6, 0x00000000},
  });
}

// With multiply-adds left unfused, the port returns the bits in the
// comments: exp_exact.cpp must keep the default FP contraction.
TEST(ExpfExact, ContractedResultsPinned) {
  expect_pins({
      {0x4202422f, 0x56fc9f1c},  // 0x1.04845ep+5; uncontracted: 0x56fc9f1b
      {0xc27c65d9, 0x11fa2993},  // -0x1.f8cbb2p+5; uncontracted: 0x11fa2992
  });
}

// CRC-32 of exp over every 4093rd bit pattern (1,049,345 inputs across all
// exponents and both signs), NaN results folded to one pattern. Recorded
// from glibc 2.36's expf.
TEST(ExpfExact, StridedSweepChecksumPinned) {
  constexpr std::uint64_t kStride = 4093;
  std::vector<std::uint32_t> inputs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += kStride) {
    inputs.push_back(static_cast<std::uint32_t>(u));
  }
  ASSERT_EQ(inputs.size(), 1049345u);
  std::uint32_t crc = 0;
  for (std::uint32_t r : exp_bits(inputs)) {
    if (std::isnan(from_bits(r))) r = 0x7fc00000u;
    crc = crc32(&r, sizeof r, crc);
  }
  EXPECT_EQ(crc, 0x47f9bbcau);
}

// softmax_rows against the same arithmetic with std::exp: exp(x - max)
// per element, the row sum left to right, then one multiply by 1/sum.
// Rows hold -inf logits and spreads beyond 88, at every width 1..40.
TEST(ExpfExact, SoftmaxRowsMatchLibmReference) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(51);
  for (std::size_t n = 1; n <= 40; ++n) {
    Matrix logits(4, n);
    for (std::size_t c = 0; c < n; ++c) {
      logits(0, c) = static_cast<float>(rng.normal());
      logits(1, c) = static_cast<float>(rng.normal(0.0, 60.0));  // > 88 apart
      logits(2, c) = c % 3 == 1 ? -kInf : static_cast<float>(rng.normal());
      logits(3, c) = static_cast<float>(rng.normal(0.0, 10.0)) - 90.0f * (c % 2);
    }
    Matrix probs;
    softmax_rows(logits, probs);
    ASSERT_EQ(probs.rows(), 4u);
    ASSERT_EQ(probs.cols(), n);
    for (std::size_t r = 0; r < 4; ++r) {
      float mx = -kInf;
      for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, logits(r, c));
      std::vector<float> want(n);
      float total = 0.0f;
      for (std::size_t c = 0; c < n; ++c) {
        want[c] = std::exp(logits(r, c) - mx);
        total += want[c];
      }
      const float inv = 1.0f / total;
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(bits(probs(r, c)), bits(want[c] * inv))
            << "row " << r << " col " << c << " of width " << n;
      }
    }
  }
}

// Opt-in (DISABLED_): every float against this host's std::exp, bitwise,
// NaN against NaN. About 15 s on 4 cores; CI runs it as its own step.
TEST(ExpfExact, DISABLED_MatchesLibmOnAllInputs) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::atomic<std::uint64_t> next{0}, mismatches{0};
  std::atomic<std::uint64_t> first_bad{~std::uint64_t{0}};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::vector<float> x(kChunk), y(kChunk);
      for (std::uint64_t c = next++; c < kChunks; c = next++) {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          x[i] = from_bits(static_cast<std::uint32_t>(c * kChunk + i));
        }
        exp_forward(x, y);
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          const float want = std::exp(x[i]);
          const float got = y[i];
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
