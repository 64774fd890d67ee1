// Dense row-major matrix of double, the numeric workhorse for the ML and GP
// substrates. Deliberately minimal: varbench needs matmul, transpose,
// elementwise ops and views — not a full BLAS.
//
// The GEMMs fix each output's summation order (docs/determinism.md,
// "Floating-point kernels"), so results are the same bits on every ISA and
// at every optimisation level, provided the compiler keeps IEEE semantics.
#pragma once

#if defined(__FAST_MATH__)
#error "varbench requires IEEE floating point: do not build with -ffast-math"
#endif

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace varbench::math {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_{rows}, cols_{cols}, data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm squared: sum of squared entries.
  [[nodiscard]] double squared_norm() const noexcept;

  void fill(double value) noexcept;

  /// Reshape to rows×cols, reusing the allocation when it is large enough.
  /// Entries are unspecified afterwards; callers overwrite every one.
  void resize(std::size_t rows, std::size_t cols);

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);
[[nodiscard]] Matrix operator*(double s, Matrix a);

/// a(m×k) * b(k×n) → (m×n). Terms with a zero factor from `a` add nothing.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// a(m×k) * bᵀ where b is (n×k) → (m×n). Avoids materializing transposes in
/// the MLP backward pass.
[[nodiscard]] Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// aᵀ * b where a is (k×m), b is (k×n) → (m×n). Terms with a zero factor
/// from `a` add nothing.
[[nodiscard]] Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// Buffer-reusing forms of the three GEMMs: `out` is resized (keeping its
/// allocation) and every entry overwritten, with the same bits as the
/// value-returning form. `out` must not be `a` or `b`.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out);

/// Instruction-set variants of the tiled GEMM kernel. kAuto, the default,
/// picks the best one the CPU supports; the others exist so that tests can
/// pin every variant to the same bits.
enum class GemmIsa : int { kAuto, kGeneric, kAvx2, kAvx512 };

/// Route every later GEMM through `isa` (process-wide; for tests). Returns
/// false, and changes nothing, when this CPU or build cannot run it.
bool force_gemm_isa(GemmIsa isa) noexcept;

/// Matrix–vector product: a(m×n) * x(n) → (m).
[[nodiscard]] std::vector<double> matvec(const Matrix& a,
                                         std::span<const double> x);

[[nodiscard]] Matrix identity(std::size_t n);

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

}  // namespace varbench::math
