#include "corpus/uci.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace warplda {
namespace {

class UciTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(UciTest, ReadsWellFormedDocword) {
  std::string path = TempPath("docword_ok.txt");
  WriteFile(path,
            "3\n4\n5\n"
            "1 1 2\n"
            "1 3 1\n"
            "2 2 1\n"
            "3 4 3\n"
            "3 1 1\n");
  Corpus corpus;
  std::string error;
  ASSERT_TRUE(uci::ReadDocword(path, &corpus, &error)) << error;
  EXPECT_EQ(corpus.num_docs(), 3u);
  EXPECT_EQ(corpus.num_words(), 4u);
  EXPECT_EQ(corpus.num_tokens(), 8u);
  EXPECT_EQ(corpus.doc_length(0), 3u);  // 2 + 1
  EXPECT_EQ(corpus.doc_length(1), 1u);
  EXPECT_EQ(corpus.doc_length(2), 4u);  // 3 + 1
  EXPECT_EQ(corpus.word_frequency(0), 3u);  // word 1: 2 in doc1 + 1 in doc3
}

TEST_F(UciTest, RejectsMalformedHeader) {
  std::string path = TempPath("docword_badheader.txt");
  WriteFile(path, "not a header\n");
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(UciTest, RejectsOutOfRangeDocId) {
  std::string path = TempPath("docword_baddoc.txt");
  WriteFile(path, "1\n2\n1\n5 1 1\n");
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
}

TEST_F(UciTest, RejectsOutOfRangeWordId) {
  std::string path = TempPath("docword_badword.txt");
  WriteFile(path, "1\n2\n1\n1 9 1\n");
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
}

TEST_F(UciTest, RejectsNonPositiveCount) {
  std::string path = TempPath("docword_badcount.txt");
  WriteFile(path, "1\n2\n1\n1 1 0\n");
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
}

TEST_F(UciTest, RejectsTruncatedEntries) {
  std::string path = TempPath("docword_trunc.txt");
  WriteFile(path, "1\n2\n3\n1 1 1\n");
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
}

TEST_F(UciTest, MissingFileFails) {
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(TempPath("nonexistent.txt"), &corpus, &error));
}

TEST_F(UciTest, RoundTripPreservesCounts) {
  CorpusBuilder builder;
  builder.set_num_words(5);
  builder.AddDocument(std::vector<WordId>{0, 0, 3});
  builder.AddDocument(std::vector<WordId>{4});
  builder.AddDocument(std::vector<WordId>{1, 2, 2, 2});
  Corpus original = builder.Build();

  std::string path = TempPath("docword_roundtrip.txt");
  std::string error;
  ASSERT_TRUE(uci::WriteDocword(original, path, &error)) << error;

  Corpus loaded;
  ASSERT_TRUE(uci::ReadDocword(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.num_docs(), original.num_docs());
  ASSERT_EQ(loaded.num_words(), original.num_words());
  ASSERT_EQ(loaded.num_tokens(), original.num_tokens());
  for (DocId d = 0; d < original.num_docs(); ++d) {
    EXPECT_EQ(loaded.doc_length(d), original.doc_length(d));
  }
  for (WordId w = 0; w < original.num_words(); ++w) {
    EXPECT_EQ(loaded.word_frequency(w), original.word_frequency(w));
  }
}

TEST_F(UciTest, VocabRoundTrip) {
  Vocabulary vocab;
  vocab.GetOrAdd("apple");
  vocab.GetOrAdd("banana");
  vocab.GetOrAdd("cherry");
  std::string path = TempPath("vocab_roundtrip.txt");
  std::string error;
  ASSERT_TRUE(uci::WriteVocab(vocab, path, &error)) << error;

  Vocabulary loaded;
  ASSERT_TRUE(uci::ReadVocab(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.word(0), "apple");
  EXPECT_EQ(loaded.word(2), "cherry");
}

TEST_F(UciTest, VocabHandlesCrLf) {
  std::string path = TempPath("vocab_crlf.txt");
  WriteFile(path, "one\r\ntwo\r\n");
  Vocabulary vocab;
  std::string error;
  ASSERT_TRUE(uci::ReadVocab(path, &vocab, &error)) << error;
  ASSERT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.word(0), "one");
  EXPECT_EQ(vocab.word(1), "two");
}

TEST_F(UciTest, EntriesInAnyOrder) {
  std::string path = TempPath("docword_shuffled.txt");
  WriteFile(path,
            "2\n2\n3\n"
            "2 1 1\n"
            "1 2 2\n"
            "1 1 1\n");
  Corpus corpus;
  std::string error;
  ASSERT_TRUE(uci::ReadDocword(path, &corpus, &error)) << error;
  EXPECT_EQ(corpus.doc_length(0), 3u);
  EXPECT_EQ(corpus.doc_length(1), 1u);
}

// Hostile headers and counts: each of these used to abort the process with
// std::bad_alloc (or silently truncate) before a single entry was checked.
// The reader must refuse them with an error, without allocating.
TEST_F(UciTest, RejectsDocCountBeyondFileSize) {
  std::string path = TempPath("docword_huge_d.txt");
  WriteFile(path, "1000000000000\n2\n1\n1 1 1\n");  // 10^12 documents
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_NE(error.find("1000000000000 documents"), std::string::npos)
      << error;
}

TEST_F(UciTest, RejectsEntryCountAboveCap) {
  std::string path = TempPath("docword_huge_count.txt");
  WriteFile(path, "1\n2\n1\n1 1 4000000000\n");  // 4*10^9 tokens
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_NE(error.find("count 4000000000"), std::string::npos) << error;
}

TEST_F(UciTest, RejectsVocabularyBeyondWordIdRange) {
  std::string path = TempPath("docword_huge_w.txt");
  WriteFile(path, "1\n5000000000\n1\n1 1 1\n");  // 5*10^9 words
  Corpus corpus;
  std::string error;
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_NE(error.find("WordId range"), std::string::npos) << error;
}

TEST_F(UciTest, RejectsSizesTheFileCannotDescribe) {
  Corpus corpus;
  std::string error;
  // A vocabulary inside the WordId range but larger than the file.
  std::string path = TempPath("docword_big_w.txt");
  WriteFile(path, "1\n3000000000\n1\n1 1 1\n");
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_NE(error.find("3000000000 words"), std::string::npos) << error;
  // More entries than the file has room for.
  path = TempPath("docword_big_nnz.txt");
  WriteFile(path, "1\n2\n1000000000000\n1 1 1\n");
  EXPECT_FALSE(uci::ReadDocword(path, &corpus, &error));
  EXPECT_NE(error.find("1000000000000 entries"), std::string::npos) << error;
  // A count at the per-entry cap is accepted.
  path = TempPath("docword_cap.txt");
  WriteFile(path, "1\n2\n1\n1 2 1048576\n");
  ASSERT_TRUE(uci::ReadDocword(path, &corpus, &error)) << error;
  EXPECT_EQ(corpus.num_tokens(), 1048576u);
  EXPECT_EQ(corpus.word_frequency(1), 1048576u);
}

// Empty documents the header declares but no entry mentions keep their ids.
TEST_F(UciTest, KeepsEmptyDocuments) {
  std::string path = TempPath("docword_empty_docs.txt");
  WriteFile(path, "4\n2\n2\n3 2 2\n1 1 1\n");
  Corpus corpus;
  std::string error;
  ASSERT_TRUE(uci::ReadDocword(path, &corpus, &error)) << error;
  ASSERT_EQ(corpus.num_docs(), 4u);
  EXPECT_EQ(corpus.doc_length(0), 1u);
  EXPECT_EQ(corpus.doc_length(1), 0u);
  EXPECT_EQ(corpus.doc_length(2), 2u);
  EXPECT_EQ(corpus.doc_length(3), 0u);
}

}  // namespace
}  // namespace warplda
