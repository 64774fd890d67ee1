#include "src/math/matrix.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace varbench::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_{rows}, cols_{cols}, data_{std::move(data)} {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: data size does not match dimensions");
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t{cols_, rows_};
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double Matrix::squared_norm() const noexcept {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void Matrix::fill(double value) noexcept {
  for (double& v : data_) v = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

namespace {

// ------------------------------------------------------------ GEMM kernels
//
// All three GEMMs compute C(i,j) = Σ_t A(i,t)·B(t,j), each output summed in
// ascending t from +0.0 — exactly the order of the naive loops they replace
// (docs/determinism.md, "Floating-point kernels"). The tiled kernel
// vectorizes across independent outputs j, never within a reduction, so a
// wider vector changes nothing but speed.

// Columns per panel of B, and of every register tile.
constexpr std::size_t kPanel = 8;

// Vector accumulators kept live per tile: enough independent add chains to
// cover the add latency on two FP ports.
constexpr std::size_t kChains = 8;

// One GEMM. A is addressed through strides; B's column panels are read in
// place (row stride b_row, panel p at b + p*b_panel), except that the last
// panel, when n is not a multiple of kPanel, comes zero-padded from `tail`.
struct Gemm {
  std::size_t m, n, k;
  const double* a;
  std::size_t a_row, a_col;  // A(i,t) = a[i*a_row + t*a_col]
  const double* b;
  std::size_t b_row, b_panel;
  const double* tail;  // k×kPanel, row stride kPanel
  double* c;           // m×n, row-major
};

// Lane-wise "is NaN" flags of a vector of doubles.
template <class V>
using NanMask = decltype(V{} != V{});

// Register tile: rows i0..i0+R-1 × P panels starting at column j0, whose
// rows of B are `b_row` apart and whose panels are `b_panel` apart. Flags
// NaN results (padding lanes included) in `nan`.
template <class V, std::size_t R, std::size_t P>
[[gnu::always_inline]] inline void gemm_tile(const Gemm& g, std::size_t i0,
                                             std::size_t j0, const double* bp,
                                             std::size_t b_row,
                                             std::size_t b_panel,
                                             NanMask<V>& nan) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kVecs = kPanel / kLanes;
  // Every loop over r, p and v is unrolled so that acc stays in registers.
  V acc[R][P][kVecs];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][p][v] = V{};
    }
  }
  const double* ap = g.a + i0 * g.a_row;
  for (std::size_t t = 0; t < g.k; ++t, ap += g.a_col, bp += b_row) {
    V bv[P][kVecs];
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&bv[p][v], bp + p * b_panel + v * kLanes, sizeof(V));
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const double av = ap[r * g.a_row];
#pragma GCC unroll 8
      for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][p][v] += av * bv[p][v];
      }
    }
  }
  const std::size_t width = std::min(P * kPanel, g.n - j0);
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    double* crow = g.c + (i0 + r) * g.n + j0;
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) {
        const std::size_t j = p * kPanel + v * kLanes;
        nan |= acc[r][p][v] != acc[r][p][v];
        if (j + kLanes <= width) {
          std::memcpy(crow + j, &acc[r][p][v], sizeof(V));
        } else {
          double lanes[kLanes];
          std::memcpy(lanes, &acc[r][p][v], sizeof(V));
          for (std::size_t l = 0; j + l < width; ++l) crow[j + l] = lanes[l];
        }
      }
    }
  }
}

// Full panels from `p0` on, in groups of P, then P/2, ..., 1: the fewer
// accumulators a tile has, the more its adds wait on each other.
template <class V, std::size_t R, std::size_t P>
[[gnu::always_inline]] inline void gemm_panels(const Gemm& g, std::size_t i0,
                                               std::size_t p0,
                                               NanMask<V>& nan) {
  const std::size_t full = g.n / kPanel;
  for (; p0 + P <= full; p0 += P) {
    gemm_tile<V, R, P>(g, i0, p0 * kPanel, g.b + p0 * g.b_panel, g.b_row,
                       g.b_panel, nan);
  }
  if constexpr (P > 1) gemm_panels<V, R, P / 2>(g, i0, p0, nan);
}

// Every column of rows i0..i0+R-1.
template <class V, std::size_t R>
[[gnu::always_inline]] inline void gemm_rows(const Gemm& g, std::size_t i0,
                                             NanMask<V>& nan) {
  constexpr std::size_t kVecs = kPanel / (sizeof(V) / sizeof(double));
  constexpr std::size_t kMaxP = kChains / (R * kVecs);
  gemm_panels<V, R, std::bit_floor(std::max<std::size_t>(1, kMaxP))>(g, i0, 0,
                                                                     nan);
  if (g.n % kPanel != 0) {
    gemm_tile<V, R, 1>(g, i0, g.n - g.n % kPanel, g.tail, kPanel, 0, nan);
  }
}

// The whole product, kRows rows at a time. Returns whether any result (or
// padding lane) is NaN.
template <class V, std::size_t kRows>
[[gnu::always_inline]] inline bool gemm_all(const Gemm& g) {
  NanMask<V> nan{};
  std::size_t i0 = 0;
  for (; i0 + kRows <= g.m; i0 += kRows) gemm_rows<V, kRows>(g, i0, nan);
  switch (g.m - i0) {
    case 3: gemm_rows<V, 3>(g, i0, nan); break;
    case 2: gemm_rows<V, 2>(g, i0, nan); break;
    case 1: gemm_rows<V, 1>(g, i0, nan); break;
    default: break;
  }
  bool any = false;
  for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l) any |= nan[l] != 0;
  return any;
}

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

// One plain function per instruction set. The kernel has no fused
// multiply-add and no reassociation (the build pins -ffp-contract=off), so
// every variant produces the same bits; only the vector width differs.
bool gemm_generic(const Gemm& g) { return gemm_all<Vec2, 2>(g); }

#if defined(__x86_64__) && defined(__GNUC__)
#define VARBENCH_GEMM_X86 1
__attribute__((target("avx2"))) bool gemm_avx2(const Gemm& g) {
  return gemm_all<Vec4, 4>(g);
}
__attribute__((target("avx512f"))) bool gemm_avx512(const Gemm& g) {
  return gemm_all<Vec8, 4>(g);
}
#endif

using GemmKernel = bool (*)(const Gemm&);

GemmKernel kernel_for(GemmIsa isa) noexcept {
#ifdef VARBENCH_GEMM_X86
  __builtin_cpu_init();
#endif
  switch (isa) {
    case GemmIsa::kGeneric:
      return gemm_generic;
#ifdef VARBENCH_GEMM_X86
    case GemmIsa::kAvx2:
      return __builtin_cpu_supports("avx2") ? gemm_avx2 : nullptr;
    case GemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") ? gemm_avx512 : nullptr;
#endif
    case GemmIsa::kAuto:
      for (const GemmIsa best : {GemmIsa::kAvx512, GemmIsa::kAvx2}) {
        if (GemmKernel k = kernel_for(best)) return k;
      }
      return gemm_generic;
    default:
      return nullptr;
  }
}

std::atomic<GemmKernel>& active_kernel() {
  static std::atomic<GemmKernel> kernel{kernel_for(GemmIsa::kAuto)};
  return kernel;
}

// Packed panels of the running thread, reused across calls.
double* pack_buffer(std::size_t doubles) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < doubles) buffer.resize(doubles);
  return buffer.data();
}

// Copies columns j0..j0+width-1 of B (B(t,j) = b[t*b_row + j*b_col]) into a
// k×kPanel panel, zero-padded on the right.
void pack_panel(const double* b, std::size_t k, std::size_t b_row,
                std::size_t b_col, std::size_t j0, std::size_t width,
                double* out) {
  for (std::size_t t = 0; t < k; ++t, out += kPanel) {
    const double* src = b + t * b_row + j0 * b_col;
    for (std::size_t jj = 0; jj < width; ++jj) out[jj] = src[jj * b_col];
    for (std::size_t jj = width; jj < kPanel; ++jj) out[jj] = 0.0;
  }
}

// C(m×n) = A·B for row-major B (k×n) read in place. Returns whether any
// result may be NaN.
bool dense_gemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
                std::size_t a_row, std::size_t a_col, const double* b,
                double* c) {
  double* tail = nullptr;
  if (n % kPanel != 0) {
    tail = pack_buffer(k * kPanel);
    pack_panel(b, k, n, 1, n - n % kPanel, n % kPanel, tail);
  }
  return active_kernel().load(std::memory_order_relaxed)(
      Gemm{m, n, k, a, a_row, a_col, b, n, kPanel, tail, c});
}

// Shared body of matmul and matmul_tn: C = A·B over A(i,t) =
// a[i*a_row + t*a_col] and row-major B (k×n), adding only the terms whose A
// factor is nonzero.
void skip_zero_product(std::size_t m, std::size_t n, std::size_t k,
                       const double* a, std::size_t a_row, std::size_t a_col,
                       const Matrix& b, Matrix& out) {
  out.resize(m, n);
  double* c = out.data().data();
  // The dense kernel adds the skipped terms too. Each is 0·b: ±0 when b is
  // finite, which leaves an accumulator that started at +0.0 bit-identical;
  // NaN otherwise, which sticks. So a NaN-free dense result is exact, and
  // only a result holding NaN is recomputed term by term.
  if (n >= kPanel && k > 0 &&
      !dense_gemm(m, n, k, a, a_row, a_col, b.data().data(), c)) {
    return;
  }
  // The original loop, for narrow outputs and results holding NaN.
  std::fill(c, c + m * n, 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    const double* brow = b.row(t).data();
    for (std::size_t i = 0; i < m; ++i) {
      const double ait = a[i * a_row + t * a_col];
      if (ait == 0.0) continue;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ait * brow[j];
    }
  }
}

void check_not_aliased(const Matrix& a, const Matrix& b, const Matrix& out,
                       const char* what) {
  if (&out == &a || &out == &b) {
    throw std::invalid_argument(std::string{what} + ": output aliases an input");
  }
}

}  // namespace

bool force_gemm_isa(GemmIsa isa) noexcept {
  const GemmKernel k = kernel_for(isa);
  if (k == nullptr) return false;
  active_kernel().store(k, std::memory_order_relaxed);
  return true;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  check_not_aliased(a, b, out, "matmul_into");
  skip_zero_product(a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(), 1,
                    b, out);
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: shape mismatch");
  }
  check_not_aliased(a, b, out, "matmul_tn_into");
  skip_zero_product(a.cols(), b.cols(), a.rows(), a.data().data(), 1, a.cols(),
                    b, out);
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: shape mismatch");
  }
  check_not_aliased(a, b, out, "matmul_nt_into");
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k = a.cols();
  out.resize(m, n);
  if (n < kPanel || k == 0) {
    // Narrow outputs (regression and few-class heads): packing would cost
    // more than it saves. Each output is the `dot` loop's sum; four rows
    // at a time keep four independent sums in flight, which makes the n=1
    // and n=2 case-study heads 1.5-2.3x faster than one `dot` per output.
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = a.row(i).data();
      const double* a1 = a.row(i + 1).data();
      const double* a2 = a.row(i + 2).data();
      const double* a3 = a.row(i + 3).data();
      for (std::size_t j = 0; j < n; ++j) {
        const double* bj = b.row(j).data();
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t t = 0; t < k; ++t) {
          s0 += a0[t] * bj[t];
          s1 += a1[t] * bj[t];
          s2 += a2[t] * bj[t];
          s3 += a3[t] * bj[t];
        }
        out(i, j) = s0;
        out(i + 1, j) = s1;
        out(i + 2, j) = s2;
        out(i + 3, j) = s3;
      }
    }
    for (; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) out(i, j) = dot(a.row(i), b.row(j));
    }
    return;
  }
  // B(t,j) = b(j,t): pack bᵀ into contiguous k×kPanel panels. matmul_nt
  // never skips terms, so non-finite entries need no special path.
  const std::size_t panels = (n + kPanel - 1) / kPanel;
  double* packed = pack_buffer(panels * k * kPanel);
  for (std::size_t p = 0; p < panels; ++p) {
    pack_panel(b.data().data(), k, 1, k, p * kPanel,
               std::min(kPanel, n - p * kPanel), packed + p * k * kPanel);
  }
  (void)active_kernel().load(std::memory_order_relaxed)(
      Gemm{m, n, k, a.data().data(), k, 1, packed, kPanel, k * kPanel,
           packed + (panels - 1) * k * kPanel, out.data().data()});
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(a, b, out);
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_nt_into(a, b, out);
  return out;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_tn_into(a, b, out);
  return out;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: shape mismatch");
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) out[i] = dot(a.row(i), x);
  return out;
}

Matrix identity(std::size_t n) {
  Matrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace varbench::math
