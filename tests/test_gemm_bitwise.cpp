// The tiled GEMMs against naive loops that restate the historical
// semantics, compared with memcmp: each output summed in ascending k from
// +0.0; matmul and matmul_tn skip terms whose A factor is zero, matmul_nt
// never skips. Every ISA variant the CPU supports must give the same bytes,
// for every MLP shape of the case studies, narrow and ragged shapes, and
// operands holding zeros, -0.0, ±inf and NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/math/matrix.h"
#include "src/rngx/rng.h"

namespace varbench::math {
namespace {

// ------------------------------------------------------ reference loops

Matrix naive_nt(const Matrix& a, const Matrix& b) {
  Matrix out{a.rows(), b.rows()};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < a.cols(); ++t) s += a(i, t) * b(j, t);
      out(i, j) = s;
    }
  }
  return out;
}

Matrix naive_nn(const Matrix& a, const Matrix& b) {
  Matrix out{a.rows(), b.cols()};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t t = 0; t < a.cols(); ++t) {
      const double ait = a(i, t);
      if (ait == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += ait * b(t, j);
    }
  }
  return out;
}

Matrix naive_tn(const Matrix& a, const Matrix& b) {
  Matrix out{a.cols(), b.cols()};
  for (std::size_t t = 0; t < a.rows(); ++t) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ati = a(t, i);
      if (ati == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += ati * b(t, j);
    }
  }
  return out;
}

// ------------------------------------------------------------- operands

enum class Fill { kDense, kReluZeros, kSpecials };

Matrix make(std::size_t rows, std::size_t cols, Fill fill, rngx::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  Matrix m{rows, cols};
  for (double& v : m.data()) {
    v = rng.normal(0.0, 1.0);
    if (fill == Fill::kReluZeros && rng.bernoulli(0.5)) v = 0.0;
    if (fill == Fill::kSpecials && rng.bernoulli(0.2)) {
      v = specials[rng.uniform_index(std::size(specials))];
    }
  }
  return m;
}

/// Byte equality of every entry, except that a NaN matches any NaN: x86
/// propagates the NaN of an operation's first operand and compilers may
/// commute the operands of + and ×, so NaN sign and payload are not stable
/// even between two builds of the naive loops.
::testing::AssertionResult same_bytes(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": got " << got.data()[i] << ", want "
             << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// C = A·B is (m×n) with inner dimension k.
struct Shape {
  std::size_t m, n, k;
};

void check_shape(const Shape& s, rngx::Rng& rng, const std::string& where) {
  const Fill fills[] = {Fill::kDense, Fill::kReluZeros, Fill::kSpecials};
  for (const Fill fa : fills) {
    for (const Fill fb : fills) {
      const std::string ctx = where + " m=" + std::to_string(s.m) +
                              " n=" + std::to_string(s.n) +
                              " k=" + std::to_string(s.k) + " fill=" +
                              std::to_string(static_cast<int>(fa)) + "/" +
                              std::to_string(static_cast<int>(fb));
      const Matrix a = make(s.m, s.k, fa, rng);       // A, row-major
      const Matrix at = make(s.k, s.m, fa, rng);      // Aᵀ for matmul_tn
      const Matrix b = make(s.k, s.n, fb, rng);       // B, row-major
      const Matrix bt = make(s.n, s.k, fb, rng);      // Bᵀ for matmul_nt
      const Matrix nn = naive_nn(a, b);
      const Matrix tn = naive_tn(at, b);
      const Matrix nt = naive_nt(a, bt);
      EXPECT_TRUE(same_bytes(matmul(a, b), nn)) << "nn " << ctx;
      EXPECT_TRUE(same_bytes(matmul_tn(at, b), tn)) << "tn " << ctx;
      EXPECT_TRUE(same_bytes(matmul_nt(a, bt), nt)) << "nt " << ctx;

      // The buffer-reusing forms, into a buffer of another shape.
      Matrix out{3, 5, 7.0};
      matmul_into(a, b, out);
      EXPECT_TRUE(same_bytes(out, nn)) << "nn_into " << ctx;
      matmul_tn_into(at, b, out);
      EXPECT_TRUE(same_bytes(out, tn)) << "tn_into " << ctx;
      matmul_nt_into(a, bt, out);
      EXPECT_TRUE(same_bytes(out, nt)) << "nt_into " << ctx;
    }
  }
}

/// Every GEMM shape of one default-configuration training step (forward
/// nt, backward tn and nn) of every case study, at a full and a ragged
/// final batch.
std::vector<Shape> mlp_shapes() {
  std::vector<Shape> shapes;
  for (const std::string& id : casestudies::case_study_ids()) {
    const auto cs = casestudies::make_case_study(id, 0.05);
    const auto cfg = cs.pipeline->resolve_config(cs.pipeline->default_params());
    std::vector<std::size_t> dims{cs.pool->dim()};
    dims.insert(dims.end(), cfg.model.hidden.begin(), cfg.model.hidden.end());
    dims.push_back(cs.pool->kind == ml::TaskKind::kClassification
                       ? cs.pool->num_classes
                       : 1);
    for (const std::size_t batch : {cfg.batch_size, cfg.batch_size / 2 + 3}) {
      for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        const std::size_t in = dims[i];
        const std::size_t out = dims[i + 1];
        shapes.push_back({batch, out, in});  // forward: X·Wᵀ
        shapes.push_back({out, in, batch});  // weight gradient: Δᵀ·X
        shapes.push_back({batch, in, out});  // backward: Δ·W
      }
    }
  }
  return shapes;
}

std::vector<Shape> edge_shapes(rngx::Rng& rng) {
  std::vector<Shape> shapes;
  for (std::size_t n = 1; n <= 9; ++n) shapes.push_back({6, n, 5});
  shapes.push_back({6, 17, 5});
  for (const std::size_t m : {1, 2, 3, 5, 6, 7, 9, 13}) {
    shapes.push_back({m, 24, 11});
  }
  for (const std::size_t n : {1, 8, 16, 33}) shapes.push_back({7, n, 1});
  shapes.push_back({0, 9, 4});
  shapes.push_back({4, 9, 0});
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({1 + rng.uniform_index(40), 1 + rng.uniform_index(70),
                      1 + rng.uniform_index(40)});
  }
  return shapes;
}

class GemmBitwise : public ::testing::TestWithParam<GemmIsa> {
 protected:
  void SetUp() override {
    if (!force_gemm_isa(GetParam())) {
      GTEST_SKIP() << "ISA variant not supported on this CPU";
    }
  }
  void TearDown() override { (void)force_gemm_isa(GemmIsa::kAuto); }
};

TEST_P(GemmBitwise, MlpShapesMatchNaiveLoops) {
  rngx::Rng rng{101};
  for (const Shape& s : mlp_shapes()) check_shape(s, rng, "mlp");
}

TEST_P(GemmBitwise, EdgeAndRandomShapesMatchNaiveLoops) {
  rngx::Rng rng{202};
  for (const Shape& s : edge_shapes(rng)) check_shape(s, rng, "edge");
}

INSTANTIATE_TEST_SUITE_P(
    Isa, GemmBitwise,
    ::testing::Values(GemmIsa::kGeneric, GemmIsa::kAvx2, GemmIsa::kAvx512),
    [](const ::testing::TestParamInfo<GemmIsa>& info) {
      switch (info.param) {
        case GemmIsa::kAuto: return std::string{"Auto"};
        case GemmIsa::kGeneric: return std::string{"Generic"};
        case GemmIsa::kAvx2: return std::string{"Avx2"};
        case GemmIsa::kAvx512: return std::string{"Avx512"};
      }
      return std::string{"Unknown"};
    });

TEST(Gemm, IntoRejectsAliasedOutput) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_THROW(matmul_into(a, b, a), std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(a, b, a), std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(a, b, a), std::invalid_argument);
}

TEST(Gemm, GenericAndAutoVariantsAlwaysRun) {
  EXPECT_TRUE(force_gemm_isa(GemmIsa::kGeneric));
  EXPECT_TRUE(force_gemm_isa(GemmIsa::kAuto));
}

}  // namespace
}  // namespace varbench::math
