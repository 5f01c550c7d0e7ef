// Randomized property tests of the SparseMatrix layout: for arbitrary shapes
// and thread counts, row and column views must expose the same entries, and
// visits split into entry-balanced item ranges (one thread each, cut at the
// col_offset / row_offset prefixes) must cover every entry exactly once.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sparse_matrix.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace warplda {
namespace {

struct MatrixShape {
  uint32_t rows;
  uint32_t cols;
  uint32_t entries;
  double col_skew;  // columns drawn from Zipf(col_skew): skewed loads
  uint32_t threads;
  uint64_t seed;
};

// Builds a random matrix; entry value = insertion index for traceability.
SparseMatrix<int64_t> RandomMatrix(const MatrixShape& shape,
                                   std::vector<std::pair<uint32_t, uint32_t>>*
                                       positions) {
  Rng rng(shape.seed);
  ZipfSampler col_dist(shape.cols, shape.col_skew);
  // Generate (row, col) pairs, then sort by row to satisfy the row-major
  // insertion requirement.
  positions->clear();
  for (uint32_t i = 0; i < shape.entries; ++i) {
    positions->emplace_back(rng.NextInt(shape.rows), col_dist.Sample(rng));
  }
  std::stable_sort(positions->begin(), positions->end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  SparseMatrix<int64_t> m;
  m.Reset(shape.rows, shape.cols);
  for (uint32_t i = 0; i < shape.entries; ++i) {
    m.AddEntry((*positions)[i].first, (*positions)[i].second, i);
  }
  m.Finalize();
  return m;
}

// Runs fn(item) for every item in [0, n), split into `threads` contiguous
// ranges of about equal entry count (offset(i) = entries before item i),
// each range on its own thread.
template <typename Offset, typename Fn>
void VisitRanges(uint32_t n, uint32_t threads, const Offset& offset,
                 const Fn& fn) {
  std::vector<uint32_t> bounds(threads + 1, n);
  bounds[0] = 0;
  uint32_t cursor = 0;
  for (uint32_t t = 1; t < threads; ++t) {
    const uint64_t target = offset(n) * t / threads;
    while (cursor < n && offset(cursor) < target) ++cursor;
    bounds[t] = cursor;
  }
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (uint32_t i = bounds[t]; i < bounds[t + 1]; ++i) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

template <typename Fn>
void VisitColumns(SparseMatrix<int64_t>& m, uint32_t threads, const Fn& fn) {
  VisitRanges(
      m.num_cols(), threads, [&](uint32_t c) { return m.col_offset(c); },
      [&](uint32_t c) { fn(c, m.col_data(c)); });
}

template <typename Fn>
void VisitRows(SparseMatrix<int64_t>& m, uint32_t threads, const Fn& fn) {
  VisitRanges(
      m.num_rows(), threads, [&](uint32_t r) { return m.row_offset(r); },
      [&](uint32_t r) { fn(r, m.row(r)); });
}

class SparseMatrixPropertyTest
    : public ::testing::TestWithParam<MatrixShape> {};

TEST_P(SparseMatrixPropertyTest, ColumnVisitCoversEachEntryOnce) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  std::vector<std::atomic<int>> seen(GetParam().entries);
  VisitColumns(m, GetParam().threads,
               [&](uint32_t, std::span<int64_t> data) {
                 for (int64_t v : data) seen[static_cast<size_t>(v)]++;
               });
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST_P(SparseMatrixPropertyTest, RowVisitCoversEachEntryOnce) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  std::vector<std::atomic<int>> seen(GetParam().entries);
  VisitRows(m, GetParam().threads,
            [&](uint32_t, SparseMatrix<int64_t>::RowView row) {
              for (uint32_t i = 0; i < row.size(); ++i) {
                seen[static_cast<size_t>(row[i])]++;
              }
            });
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST_P(SparseMatrixPropertyTest, RowViewMatchesInsertedPositions) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  VisitRows(m, 1, [&](uint32_t r, SparseMatrix<int64_t>::RowView row) {
    for (uint32_t i = 0; i < row.size(); ++i) {
      int64_t insertion = row[i];
      EXPECT_EQ(positions[static_cast<size_t>(insertion)].first, r);
    }
  });
}

TEST_P(SparseMatrixPropertyTest, ColumnsSortedByRow) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  VisitColumns(m, 1, [&](uint32_t c, std::span<int64_t> data) {
    uint32_t prev_row = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      const auto& pos = positions[static_cast<size_t>(data[i])];
      EXPECT_EQ(pos.second, c);
      if (i > 0) {
        EXPECT_GE(pos.first, prev_row);
      }
      prev_row = pos.first;
    }
  });
}

TEST_P(SparseMatrixPropertyTest, CscPositionRoundTrips) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  for (uint32_t i = 0; i < GetParam().entries; ++i) {
    EXPECT_EQ(m.entry_data(m.csc_position(i)), static_cast<int64_t>(i));
  }
}

TEST_P(SparseMatrixPropertyTest, MutationsVisibleAcrossOrientations) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  VisitColumns(m, GetParam().threads,
               [&](uint32_t, std::span<int64_t> data) {
                 for (auto& v : data) v = -v - 1;
               });
  int64_t expected = 0;
  for (uint32_t i = 0; i < GetParam().entries; ++i) {
    expected += -static_cast<int64_t>(i) - 1;
  }
  std::atomic<int64_t> total{0};
  VisitRows(m, GetParam().threads,
            [&](uint32_t, SparseMatrix<int64_t>::RowView row) {
              int64_t local = 0;
              for (uint32_t i = 0; i < row.size(); ++i) local += row[i];
              total += local;
            });
  EXPECT_EQ(total.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseMatrixPropertyTest,
    ::testing::Values(MatrixShape{1, 1, 1, 0.0, 1, 1},
                      MatrixShape{10, 10, 50, 0.5, 1, 2},
                      MatrixShape{100, 30, 1000, 1.5, 4, 3},
                      MatrixShape{50, 500, 2000, 2.0, 3, 4},
                      MatrixShape{300, 300, 5000, 1.0, 8, 5},
                      MatrixShape{7, 1000, 400, 2.5, 2, 6}),
    [](const auto& pinfo) {
      const auto& s = pinfo.param;
      return "r" + std::to_string(s.rows) + "c" + std::to_string(s.cols) +
             "e" + std::to_string(s.entries) + "t" +
             std::to_string(s.threads);
    });

}  // namespace
}  // namespace warplda
