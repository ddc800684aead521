// Compute kernels over Matrix / raw float spans.
//
// Conventions: out-parameters come last; all shapes are validated with
// FEDTUNE_CHECK (these kernels are called per minibatch, not per element, so
// the checks are cheap relative to the math they guard).
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace fedtune::ops {

// out = a @ b          (m,k) x (k,n) -> (m,n)
void gemm(const Matrix& a, const Matrix& b, Matrix& out);
// out = a @ b^T        (m,k) x (n,k) -> (m,n)
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T @ b        (k,m) x (k,n) -> (m,n)
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out);

// Accumulating variants: out += ...
void gemm_acc(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& out);

// Raw-pointer kernels for operands living inside a flat parameter store
// (weights are spans of a ParamStore, not Matrix objects).
//
// Row independence: with accumulate=false and k <= 256 (one k-tile, kKc in
// ops.cpp), row r of gemm_raw's output is bitwise a function of row r of a
// alone, for any m, signs of zero included: every row path sums k in order
// from zero and stores 0 + that sum, so a zero result is +0 on every path.
// nn::TextMlp relies on it: training and evaluation run the forward pass
// once per distinct context, not once per position. Above one k-tile, the
// first sum_rows(m) rows (ops.cpp) add each tile's sum to c while the
// others accumulate straight into c, so rows can differ; no shipped layer
// has k > 32. gemm_nt_raw only keeps row r independent of the other rows of
// a for a fixed m: at m >= 12 its blocked path sums k in order while the
// dot-product path (fewer rows, the last m % 6 < 4 rows, the n % 16 tail)
// uses a SIMD reduction.
// c[m,n] (+)= a[m,k] @ b[k,n]
void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate);
// c[m,n] (+)= a[m,k] @ b[n,k]^T
void gemm_nt_raw(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate);
// c[m,n] (+)= a[k,m]^T @ b[k,n]
void gemm_tn_raw(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t m, std::size_t n, bool accumulate);

// Reference scalar kernels (plain loops in textbook order), used by the
// tests of the kernels above; never called on a hot path.
void gemm_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate);
void gemm_nt_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate);
void gemm_tn_naive_raw(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t m, std::size_t n, bool accumulate);
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out);

// Adds a row-vector bias (1,n) to every row of x (m,n).
void add_row_bias(Matrix& x, std::span<const float> bias);
// Fused bias + ReLU in one pass: x = max(0, x + bias) rowwise.
void add_row_bias_relu(Matrix& x, std::span<const float> bias);
// bias_grad += column sums of grad (m,n) -> (n).
void col_sums_acc(const Matrix& grad, std::span<float> bias_grad);

// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// x *= alpha.
void scale(std::span<float> x, float alpha);
float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> x);

// Elementwise activations, forward and backward. Backward computes
// grad_in = grad_out * f'(x) given the *activation output* y (for relu and
// tanh the derivative is expressible in y).
void relu(const Matrix& x, Matrix& y);
void relu_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in);
// tanh_forward is a vectorized port of glibc's fdlibm tanhf (tanh_exact.cpp,
// compiled without FP contraction): bitwise std::tanh on glibc hosts whose
// libm uses that code, and the same bits on every host, so model outputs do
// not depend on the host's libm.
void tanh_forward(const Matrix& x, Matrix& y);
void tanh_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in);

// y[i] = exp(x[i]); x and y must not overlap. A vectorized port of glibc
// 2.36's expf (exp_exact.cpp, compiled with the default FP contraction):
// bitwise std::exp on glibc hosts whose libm uses that code, with inputs
// off its main path (|x| >= 88, NaN) computed by std::exp itself.
void exp_forward(std::span<const float> x, std::span<float> y);

// Row-wise softmax (numerically stabilized); each output row depends only
// on its own logits row. exp(x - max) is exp_forward's port, and the row sum
// is added strictly left to right.
void softmax_rows(const Matrix& logits, Matrix& probs);

// Mean cross-entropy loss over the batch given integer labels; also emits
// dL/dlogits (= (probs - onehot)/batch). Returns the loss. It is
// softmax_rows followed by cross_entropy_from_probs.
double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::int32_t> labels,
                             Matrix& grad_logits);
// The label half of softmax_cross_entropy: given row-wise softmax `probs`,
// returns the mean loss and turns probs into dL/dlogits in place. Callers
// that compute the softmax themselves (nn::TextMlp, once per distinct
// context) share this loop, so the loss arithmetic has a single copy.
double cross_entropy_from_probs(std::span<const std::int32_t> labels,
                                Matrix& probs);

// Number of rows whose argmax != label.
std::size_t count_errors(const Matrix& logits,
                         std::span<const std::int32_t> labels);

std::size_t argmax_row(const Matrix& m, std::size_t row);

}  // namespace fedtune::ops
