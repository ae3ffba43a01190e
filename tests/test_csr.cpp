#include "matrix/csr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace csrl {
namespace {

CsrMatrix small() {
  // [ 1 2 0 ]
  // [ 0 0 3 ]
  // [ 4 0 5 ]
  CsrBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 2, 3.0);
  b.add(2, 0, 4.0);
  b.add(2, 2, 5.0);
  return b.build();
}

TEST(CsrBuilder, BuildsSortedRows) {
  CsrBuilder b(2, 4);
  b.add(0, 3, 1.0);
  b.add(0, 1, 2.0);
  b.add(0, 2, 3.0);
  const CsrMatrix m = b.build();
  const auto row = m.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].col, 1u);
  EXPECT_EQ(row[1].col, 2u);
  EXPECT_EQ(row[2].col, 3u);
}

TEST(CsrBuilder, DuplicatesAccumulate) {
  CsrBuilder b(1, 2);
  b.add(0, 1, 1.5);
  b.add(0, 1, 2.5);
  b.add(0, 0, 1.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
}

TEST(CsrBuilder, ZeroEntriesAreDropped) {
  CsrBuilder b(1, 2);
  b.add(0, 0, 0.0);
  EXPECT_EQ(b.build().nnz(), 0u);
}

TEST(CsrBuilder, OutOfRangeThrows) {
  CsrBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), ModelError);
  EXPECT_THROW(b.add(0, 2, 1.0), ModelError);
}

TEST(CsrBuilder, NonFiniteThrows) {
  CsrBuilder b(1, 1);
  EXPECT_THROW(b.add(0, 0, std::numeric_limits<double>::quiet_NaN()), ModelError);
  EXPECT_THROW(b.add(0, 0, std::numeric_limits<double>::infinity()), ModelError);
}

TEST(CsrBuilder, ReusableAfterBuild) {
  CsrBuilder b(1, 1);
  b.add(0, 0, 1.0);
  const CsrMatrix first = b.build();
  const CsrMatrix second = b.build();
  EXPECT_EQ(first.nnz(), second.nnz());
  EXPECT_DOUBLE_EQ(second.at(0, 0), 1.0);
}

TEST(CsrMatrix, AtReadsStoredAndMissing) {
  const CsrMatrix m = small();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 5.0);
}

TEST(CsrMatrix, Multiply) {
  const CsrMatrix m = small();
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3, -1.0);
  m.multiply(x, y);
  EXPECT_EQ(y, (std::vector<double>{5.0, 9.0, 19.0}));
}

TEST(CsrMatrix, MultiplyLeftIsTransposedMultiply) {
  const CsrMatrix m = small();
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> left(3, 0.0);
  m.multiply_left(x, left);

  std::vector<double> viat(3, 0.0);
  m.transposed().multiply(x, viat);
  EXPECT_EQ(left, viat);
  EXPECT_EQ(left, (std::vector<double>{13.0, 2.0, 21.0}));
}

TEST(CsrMatrix, MultiplyDimensionMismatchThrows) {
  const CsrMatrix m = small();
  std::vector<double> bad(2, 0.0);
  std::vector<double> out(3, 0.0);
  EXPECT_THROW(m.multiply(bad, out), ModelError);
  EXPECT_THROW(m.multiply_left(bad, out), ModelError);
}

TEST(CsrMatrix, RowSumsAndDiagonal) {
  const CsrMatrix m = small();
  EXPECT_EQ(m.row_sums(), (std::vector<double>{3.0, 3.0, 9.0}));
  EXPECT_EQ(m.diagonal(), (std::vector<double>{1.0, 0.0, 5.0}));
}

TEST(CsrMatrix, TransposedTwiceIsIdentity) {
  const CsrMatrix m = small();
  const CsrMatrix tt = m.transposed().transposed();
  ASSERT_EQ(tt.nnz(), m.nnz());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt.at(r, c), m.at(r, c));
}

TEST(CsrMatrix, ScaledAndMaxAbs) {
  const CsrMatrix m = small().scaled(-2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), -10.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 10.0);
  EXPECT_DOUBLE_EQ(CsrMatrix(3, 3).max_abs(), 0.0);
}

TEST(CsrMatrix, PrincipalSubmatrixKeepsInsideEntriesInRowOrder) {
  // Subset {0, 2} of small(): [ 1 0 ] / [ 4 5 ]; the (0, 1) and (1, 2)
  // entries leave the subset and are dropped, row 1 is not selected.
  const CsrMatrix sub = small().principal_submatrix(std::vector<std::size_t>{0, 2});
  ASSERT_EQ(sub.rows(), 2u);
  ASSERT_EQ(sub.cols(), 2u);
  EXPECT_EQ(sub.nnz(), 3u);
  EXPECT_EQ(sub.at(0, 0), 1.0);
  EXPECT_EQ(sub.at(0, 1), 0.0);
  EXPECT_EQ(sub.at(1, 0), 4.0);
  EXPECT_EQ(sub.at(1, 1), 5.0);

  // Bit for bit the CsrBuilder assembly of the same entries.
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 0, 4.0);
  b.add(1, 1, 5.0);
  const CsrMatrix built = b.build();
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(sub.row(r).size(), built.row(r).size());
    for (std::size_t k = 0; k < built.row(r).size(); ++k) {
      EXPECT_EQ(sub.row(r)[k].col, built.row(r)[k].col);
      EXPECT_EQ(sub.row(r)[k].value, built.row(r)[k].value);
    }
  }
}

TEST(CsrMatrix, PrincipalSubmatrixEdgeCases) {
  const CsrMatrix m = small();
  EXPECT_EQ(m.principal_submatrix({}).rows(), 0u);
  const CsrMatrix all = m.principal_submatrix(std::vector<std::size_t>{0, 1, 2});
  EXPECT_EQ(all.nnz(), m.nnz());
  // A singleton keeps only its diagonal entry.
  EXPECT_EQ(m.principal_submatrix(std::vector<std::size_t>{2}).nnz(), 1u);
  EXPECT_THROW((void)m.principal_submatrix(std::vector<std::size_t>{2, 0}),
               ModelError);
  EXPECT_THROW((void)m.principal_submatrix(std::vector<std::size_t>{1, 1}),
               ModelError);
  EXPECT_THROW((void)m.principal_submatrix(std::vector<std::size_t>{3}),
               ModelError);
  EXPECT_THROW(
      (void)CsrMatrix(2, 3).principal_submatrix(std::vector<std::size_t>{0}),
      ModelError);
}

TEST(CsrMatrix, RectangularShapes) {
  CsrBuilder b(2, 5);
  b.add(1, 4, 7.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_DOUBLE_EQ(t.at(4, 1), 7.0);
}

TEST(CsrMatrix, EmptyMatrix) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

}  // namespace
}  // namespace csrl
