#ifndef WARPLDA_CORE_SPARSE_MATRIX_H_
#define WARPLDA_CORE_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace warplda {

/// The computational framework of paper §5.1 (Fig. 2): a sparse matrix whose
/// fixed structure holds mutable per-entry data, visited column by column
/// (col_data) and row by row (row).
///
/// Layout follows §5.2: entry data is stored once, contiguously in CSC order
/// (column-major), with each column's entries sorted by row id. Rows are
/// visited through an index array (the paper's P_CSR pointers) — indirect
/// accesses that still utilize full cache lines because every column is
/// consumed front-to-back during a row sweep. No transpose pass is needed.
///
/// Usage:
///   SparseMatrix<Topic> m;
///   m.Reset(D, V);
///   for (...) m.AddEntry(d, w, data);   // insertion must be row-major
///   m.Finalize();
///   for (uint32_t c = 0; c < m.num_cols(); ++c) Update(m.col_data(c));
///   for (uint32_t r = 0; r < m.num_rows(); ++r) Update(m.row(r));
///
/// Distinct rows (or columns) never share entries, so a visit may split
/// them across threads with only thread-local scratch (paper §5.3.1);
/// col_offset / row_offset are the entry-count prefixes to balance on.
template <typename Data>
class SparseMatrix {
 public:
  /// Indirect view of one row's entries (in ascending column order).
  class RowView {
   public:
    RowView(Data* data, const uint64_t* entries, uint32_t size)
        : data_(data), entries_(entries), size_(size) {}

    uint32_t size() const { return size_; }
    Data& operator[](uint32_t i) const { return data_[entries_[i]]; }
    /// CSC position of the i-th entry (stable across visits; callers use it
    /// to index side arrays parallel to the entry data).
    uint64_t entry_index(uint32_t i) const { return entries_[i]; }
    /// The row's CSC positions, entry_index(0..size()-1) in one array.
    const uint64_t* entries() const { return entries_; }

   private:
    Data* data_;
    const uint64_t* entries_;
    uint32_t size_;
  };

  /// Clears the matrix and declares its dimensions.
  void Reset(uint32_t rows, uint32_t cols) {
    rows_ = rows;
    cols_ = cols;
    build_rows_.clear();
    build_cols_.clear();
    build_data_.clear();
    finalized_ = false;
  }

  /// Adds an entry at (r, c). Multiple entries per cell are allowed (a word
  /// occurring twice in a document is two entries). Must be called in
  /// row-major order (all of row 0, then row 1, …): columns then finalize
  /// sorted by row id, and the i-th insertion is the i-th row entry, which
  /// csc_position relies on. Throws std::invalid_argument on a row id below
  /// the previous one.
  void AddEntry(uint32_t r, uint32_t c, Data data = Data()) {
    if (!build_rows_.empty() && r < build_rows_.back()) [[unlikely]] {
      RejectRowOrder(r);
    }
    build_rows_.push_back(r);
    build_cols_.push_back(c);
    build_data_.push_back(data);
  }

  /// Freezes the structure and builds the CSC layout plus row pointers.
  void Finalize();

  uint32_t num_rows() const { return rows_; }
  uint32_t num_cols() const { return cols_; }
  uint64_t num_entries() const { return data_.size(); }

  /// Contiguous data of column c (entries sorted by row id).
  std::span<Data> col_data(uint32_t c) {
    return {data_.data() + col_offsets_[c],
            static_cast<size_t>(col_offsets_[c + 1] - col_offsets_[c])};
  }

  /// CSC position of column c's first entry (columns are contiguous, so the
  /// i-th entry of col_data(c) lives at CSC position col_offset(c)+i).
  uint64_t col_offset(uint32_t c) const { return col_offsets_[c]; }

  /// Entries in rows before r (row r's first entry is the row_offset(r)-th
  /// in row-major order); row_offset(num_rows()) = num_entries().
  uint64_t row_offset(uint32_t r) const { return row_offsets_[r]; }

  RowView row(uint32_t r) {
    return RowView(data_.data(), row_entries_.data() + row_offsets_[r],
                   static_cast<uint32_t>(row_offsets_[r + 1] -
                                         row_offsets_[r]));
  }

  /// Entry data by CSC position.
  Data& entry_data(uint64_t csc_pos) { return data_[csc_pos]; }
  const Data& entry_data(uint64_t csc_pos) const { return data_[csc_pos]; }

  /// CSC position of the i-th inserted entry (insertion order == row-major
  /// token order), i.e. the row-to-column permutation. Row-major insertion
  /// makes the row entry array exactly this permutation.
  uint64_t csc_position(uint64_t insertion_index) const {
    return row_entries_[insertion_index];
  }

 private:
  // Out of line and cold so AddEntry stays small enough to inline into the
  // per-token build loop.
  [[noreturn, gnu::cold, gnu::noinline]] void RejectRowOrder(
      uint32_t r) const {
    throw std::invalid_argument(
        "SparseMatrix::AddEntry: row " + std::to_string(r) +
        " inserted after row " + std::to_string(build_rows_.back()));
  }

  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  bool finalized_ = false;

  // Build-time staging (insertion order).
  std::vector<uint32_t> build_rows_;
  std::vector<uint32_t> build_cols_;
  std::vector<Data> build_data_;

  // Finalized layout.
  std::vector<Data> data_;               // CSC order
  std::vector<uint64_t> col_offsets_;    // cols_+1
  std::vector<uint64_t> row_offsets_;    // rows_+1
  std::vector<uint64_t> row_entries_;    // CSC positions, insertion order
};

template <typename Data>
void SparseMatrix<Data>::Finalize() {
  const uint64_t n = build_data_.size();

  col_offsets_.assign(cols_ + 1, 0);
  for (uint32_t c : build_cols_) ++col_offsets_[c + 1];
  for (uint32_t c = 0; c < cols_; ++c) col_offsets_[c + 1] += col_offsets_[c];

  row_offsets_.assign(rows_ + 1, 0);
  for (uint32_t r : build_rows_) ++row_offsets_[r + 1];
  for (uint32_t r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];

  // Row-major insertion (enforced by AddEntry) means entries grouped by
  // row are the entries in insertion order.
  data_.resize(n);
  row_entries_.resize(n);
  std::vector<uint64_t> col_cursor(col_offsets_.begin(),
                                   col_offsets_.end() - 1);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pos = col_cursor[build_cols_[i]]++;
    data_[pos] = build_data_[i];
    row_entries_[i] = pos;
  }

  build_rows_.clear();
  build_rows_.shrink_to_fit();
  build_cols_.clear();
  build_cols_.shrink_to_fit();
  build_data_.clear();
  build_data_.shrink_to_fit();
  finalized_ = true;
}

}  // namespace warplda

#endif  // WARPLDA_CORE_SPARSE_MATRIX_H_
