#ifndef WARPLDA_CORPUS_UCI_H_
#define WARPLDA_CORPUS_UCI_H_

#include <string>

#include "corpus/corpus.h"
#include "corpus/vocabulary.h"

namespace warplda {

/// Reader/writer for the UCI machine-learning-repository bag-of-words format
/// used by the paper's NYTimes and PubMed datasets (§6.1).
///
/// docword file layout (1-based ids):
///   D
///   W
///   NNZ
///   docID wordID count      (NNZ such lines)
/// vocab file layout: one word per line, line i+1 is word id i.
namespace uci {

/// Parses a docword file. Returns false (and fills *error) on malformed
/// input: bad header, ids out of range, or non-positive counts.
/// Entries may arrive in any order; documents come out ordered by id.
/// Header sizes are validated before anything is allocated from them — D
/// and W may not exceed the file's byte size or their id types, NNZ not
/// what the file can hold — and per-entry counts are capped, so a hostile
/// or corrupt header yields an error rather than an allocation failure.
bool ReadDocword(const std::string& path, Corpus* corpus, std::string* error);

/// Parses a vocab file (one word per line).
bool ReadVocab(const std::string& path, Vocabulary* vocab, std::string* error);

/// Writes a corpus in docword format (token multiplicities collapsed into
/// counts). Returns false on I/O failure.
bool WriteDocword(const Corpus& corpus, const std::string& path,
                  std::string* error);

/// Writes a vocabulary, one word per line.
bool WriteVocab(const Vocabulary& vocab, const std::string& path,
                std::string* error);

}  // namespace uci
}  // namespace warplda

#endif  // WARPLDA_CORPUS_UCI_H_
