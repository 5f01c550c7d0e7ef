#include "corpus/uci.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace warplda {
namespace uci {

namespace {
bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Largest accepted count on one entry line. A bag-of-words count beyond
// this is a corrupt or hostile file, not a document, and would otherwise
// make the reader materialize billions of tokens.
constexpr int64_t kMaxEntryCount = int64_t{1} << 20;
// Shortest possible entry: three one-digit ids separated by whitespace, plus
// the whitespace ending the previous line.
constexpr uint64_t kMinEntryBytes = 6;
}  // namespace

bool ReadDocword(const std::string& path, Corpus* corpus, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0 || !in) return Fail(error, path + ": cannot determine file size");
  const uint64_t file_bytes = static_cast<uint64_t>(end);

  uint64_t d_count = 0;
  uint64_t w_count = 0;
  uint64_t nnz = 0;
  if (!(in >> d_count >> w_count >> nnz)) {
    return Fail(error, path + ": malformed header");
  }
  // Validate every size before allocating anything from it: the document
  // and vocabulary tables are O(D) and O(W), and the entry list O(NNZ).
  // None can exceed what a file of this size can describe, nor the id types.
  const std::string bytes = std::to_string(file_bytes) + "-byte file";
  if (d_count > std::numeric_limits<DocId>::max() || d_count > file_bytes) {
    return Fail(error, path + ": header claims " + std::to_string(d_count) +
                           " documents, more than a " + bytes +
                           " or the DocId range can hold");
  }
  if (w_count >= std::numeric_limits<WordId>::max()) {
    return Fail(error, path + ": header claims " + std::to_string(w_count) +
                           " words, beyond the WordId range");
  }
  if (w_count > file_bytes) {
    return Fail(error, path + ": header claims " + std::to_string(w_count) +
                           " words, more than a " + bytes + " can describe");
  }
  if (nnz > file_bytes / kMinEntryBytes) {
    return Fail(error, path + ": header claims " + std::to_string(nnz) +
                           " entries, more than a " + bytes + " can hold");
  }

  // Documents may appear out of order in the file; bucket tokens by doc.
  // The sizes are bounded now, but the token total (at most NNZ capped
  // counts) may still outgrow memory: report that as an error too.
  try {
    std::vector<std::vector<WordId>> docs(d_count);
    for (uint64_t i = 0; i < nnz; ++i) {
      uint64_t doc_id = 0;
      uint64_t word_id = 0;
      int64_t count = 0;
      if (!(in >> doc_id >> word_id >> count)) {
        return Fail(error, path + ": truncated entry list");
      }
      if (doc_id < 1 || doc_id > d_count) {
        return Fail(error, path + ": doc id out of range");
      }
      if (word_id < 1 || word_id > w_count) {
        return Fail(error, path + ": word id out of range");
      }
      if (count <= 0) return Fail(error, path + ": non-positive count");
      if (count > kMaxEntryCount) {
        return Fail(error, path + ": count " + std::to_string(count) +
                               " exceeds the per-entry limit of " +
                               std::to_string(kMaxEntryCount));
      }
      auto& doc = docs[doc_id - 1];
      if (doc.size() + static_cast<uint64_t>(count) >
          std::numeric_limits<uint32_t>::max()) {
        return Fail(error, path + ": document " + std::to_string(doc_id) +
                               " exceeds the per-document token limit");
      }
      doc.insert(doc.end(), static_cast<size_t>(count),
                 static_cast<WordId>(word_id - 1));
    }

    CorpusBuilder builder;
    builder.set_num_words(static_cast<WordId>(w_count));
    for (auto& doc : docs) builder.AddDocument(doc);
    *corpus = builder.Build();
  } catch (const std::bad_alloc&) {
    return Fail(error, path + ": corpus too large to load into memory");
  }
  return true;
}

bool ReadVocab(const std::string& path, Vocabulary* vocab,
               std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.pop_back();
    }
    if (!line.empty()) vocab->GetOrAdd(line);
  }
  return true;
}

bool WriteDocword(const Corpus& corpus, const std::string& path,
                  std::string* error) {
  std::ofstream out(path);
  if (!out) return Fail(error, "cannot open " + path + " for writing");

  // First pass: collapse per-document tokens into (word, count) pairs.
  uint64_t nnz = 0;
  std::vector<std::map<WordId, uint32_t>> bags(corpus.num_docs());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc_tokens(d)) ++bags[d][w];
    nnz += bags[d].size();
  }

  out << corpus.num_docs() << "\n"
      << corpus.num_words() << "\n"
      << nnz << "\n";
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (const auto& [w, count] : bags[d]) {
      out << (d + 1) << ' ' << (w + 1) << ' ' << count << "\n";
    }
  }
  return out.good() || Fail(error, "write error on " + path);
}

bool WriteVocab(const Vocabulary& vocab, const std::string& path,
                std::string* error) {
  std::ofstream out(path);
  if (!out) return Fail(error, "cannot open " + path + " for writing");
  for (WordId i = 0; i < vocab.size(); ++i) out << vocab.word(i) << "\n";
  return out.good() || Fail(error, "write error on " + path);
}

}  // namespace uci
}  // namespace warplda
