#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/matrix.hpp"

namespace fedtune {
namespace {

Matrix make(std::size_t r, std::size_t c, std::vector<float> v) {
  return Matrix::from_rows(r, c, std::move(v));
}

// Reference gemm for cross-checking the optimized kernels.
Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      out(i, j) = acc;
    }
  }
  return out;
}

TEST(Matrix, BasicAccessors) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 3), std::invalid_argument);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 3.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
  EXPECT_THROW(m.row(5), std::invalid_argument);
}

TEST(Ops, GemmMatchesNaive) {
  Rng rng(1);
  for (auto [m, k, n] : {std::tuple{3u, 4u, 5u}, std::tuple{1u, 7u, 2u},
                         std::tuple{8u, 8u, 8u}}) {
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    Matrix out;
    ops::gemm(a, b, out);
    const Matrix ref = naive_gemm(a, b);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out.flat()[i], ref.flat()[i], 1e-4f);
    }
  }
}

TEST(Ops, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out;
  EXPECT_THROW(ops::gemm(a, b, out), std::invalid_argument);
}

TEST(Ops, GemmNtMatchesTransposedGemm) {
  Rng rng(2);
  const Matrix a = Matrix::randn(3, 4, rng);
  const Matrix bt = Matrix::randn(5, 4, rng);  // b = bt^T is (4,5)
  Matrix b(4, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b(j, i) = bt(i, j);
  }
  Matrix out_nt, out_ref;
  ops::gemm_nt(a, bt, out_nt);
  ops::gemm(a, b, out_ref);
  for (std::size_t i = 0; i < out_nt.size(); ++i) {
    EXPECT_NEAR(out_nt.flat()[i], out_ref.flat()[i], 1e-4f);
  }
}

TEST(Ops, GemmTnMatchesTransposedGemm) {
  Rng rng(3);
  const Matrix at = Matrix::randn(4, 3, rng);  // a = at^T is (3,4)
  const Matrix b = Matrix::randn(4, 5, rng);
  Matrix a(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(j, i) = at(i, j);
  }
  Matrix out_tn, out_ref;
  ops::gemm_tn(at, b, out_tn);
  ops::gemm(a, b, out_ref);
  for (std::size_t i = 0; i < out_tn.size(); ++i) {
    EXPECT_NEAR(out_tn.flat()[i], out_ref.flat()[i], 1e-4f);
  }
}

TEST(Ops, AccumulatingVariantsAdd) {
  Rng rng(4);
  const Matrix a = Matrix::randn(2, 3, rng);
  const Matrix b = Matrix::randn(3, 2, rng);
  Matrix out;
  ops::gemm(a, b, out);
  const Matrix once = out;
  ops::gemm_acc(a, b, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], 2.0f * once.flat()[i], 1e-4f);
  }
}

TEST(Ops, RawGemmMatchesMatrixGemm) {
  Rng rng(5);
  const Matrix a = Matrix::randn(4, 6, rng);
  const Matrix b = Matrix::randn(6, 3, rng);
  Matrix ref;
  ops::gemm(a, b, ref);
  std::vector<float> out(4 * 3, 0.0f);
  ops::gemm_raw(a.data(), b.data(), out.data(), 4, 6, 3, false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], ref.flat()[i]);
  }
}

TEST(Ops, AddRowBiasAndColSums) {
  Matrix x = make(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<float> bias = {10, 20, 30};
  ops::add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x(1, 2), 36.0f);

  std::vector<float> sums(3, 0.0f);
  ops::col_sums_acc(x, sums);
  EXPECT_FLOAT_EQ(sums[0], 11.0f + 14.0f);
  EXPECT_FLOAT_EQ(sums[2], 33.0f + 36.0f);
}

TEST(Ops, AxpyScaleDotNorm) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {1, 1, 1};
  ops::axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  ops::scale(y, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(ops::dot(x, x), 14.0f);
  EXPECT_FLOAT_EQ(ops::l2_norm(std::vector<float>{3.0f, 4.0f}), 5.0f);
}

TEST(Ops, ReluForwardBackward) {
  const Matrix x = make(1, 4, {-1, 0, 2, -3});
  Matrix y;
  ops::relu(x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
  const Matrix g = make(1, 4, {1, 1, 1, 1});
  Matrix gx;
  ops::relu_backward(y, g, gx);
  EXPECT_FLOAT_EQ(gx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gx(0, 2), 1.0f);
}

TEST(Ops, TanhBackwardViaFiniteDifference) {
  const double h = 1e-4;
  for (float v : {-1.5f, -0.2f, 0.0f, 0.7f, 2.0f}) {
    Matrix x = make(1, 1, {v});
    Matrix y, yp, ym;
    ops::tanh_forward(x, y);
    Matrix xp = make(1, 1, {static_cast<float>(v + h)});
    Matrix xm = make(1, 1, {static_cast<float>(v - h)});
    ops::tanh_forward(xp, yp);
    ops::tanh_forward(xm, ym);
    const double numeric = (yp(0, 0) - ym(0, 0)) / (2 * h);
    Matrix g = make(1, 1, {1.0f}), gx;
    ops::tanh_backward(y, g, gx);
    EXPECT_NEAR(gx(0, 0), numeric, 1e-3);
  }
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  const Matrix logits = make(2, 3, {1, 2, 3, -1, -1, 5});
  Matrix probs;
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) total += probs(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(probs(0, 2), probs(0, 1));
  EXPECT_GT(probs(1, 2), 0.99f);
}

TEST(Ops, SoftmaxNumericallyStable) {
  const Matrix logits = make(1, 2, {1000.0f, 999.0f});
  Matrix probs;
  ops::softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs(0, 0)));
  EXPECT_GT(probs(0, 0), probs(0, 1));
}

TEST(Ops, CrossEntropyMatchesManual) {
  const Matrix logits = make(1, 3, {0.0f, 1.0f, 2.0f});
  const std::vector<std::int32_t> labels = {2};
  Matrix grad;
  const double loss = ops::softmax_cross_entropy(logits, labels, grad);
  // Manual: log-sum-exp(0,1,2) - 2
  const double lse = std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  EXPECT_NEAR(loss, lse - 2.0, 1e-5);
  // Gradient sums to 0 across classes for a single example.
  EXPECT_NEAR(grad(0, 0) + grad(0, 1) + grad(0, 2), 0.0f, 1e-6f);
  EXPECT_LT(grad(0, 2), 0.0f);  // true-class grad negative
}

TEST(Ops, CrossEntropyGradientFiniteDifference) {
  Rng rng(6);
  Matrix logits = Matrix::randn(3, 4, rng);
  const std::vector<std::int32_t> labels = {1, 3, 0};
  Matrix grad;
  ops::softmax_cross_entropy(logits, labels, grad);
  const double h = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix lp = logits, lm = logits;
    lp.flat()[i] += static_cast<float>(h);
    lm.flat()[i] -= static_cast<float>(h);
    Matrix tmp;
    const double fp = ops::softmax_cross_entropy(lp, labels, tmp);
    const double fm = ops::softmax_cross_entropy(lm, labels, tmp);
    EXPECT_NEAR(grad.flat()[i], (fp - fm) / (2 * h), 1e-3);
  }
}

TEST(Ops, CountErrorsAndArgmax) {
  const Matrix logits = make(3, 2, {1, 0, 0, 1, 1, 0});
  EXPECT_EQ(ops::argmax_row(logits, 0), 0u);
  EXPECT_EQ(ops::argmax_row(logits, 1), 1u);
  const std::vector<std::int32_t> labels = {0, 0, 0};
  EXPECT_EQ(ops::count_errors(logits, labels), 1u);
}

TEST(Ops, CrossEntropyRejectsBadLabel) {
  const Matrix logits = make(1, 2, {0.0f, 0.0f});
  const std::vector<std::int32_t> labels = {5};
  Matrix grad;
  EXPECT_THROW(ops::softmax_cross_entropy(logits, labels, grad),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedtune
