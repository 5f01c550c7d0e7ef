// A serial, scalar WarpLDA written straight from the paper (§4.2–4.4), kept
// as the test oracle for WarpLdaSampler. It shares only primitives with the
// sampler under test — Rng/SplitMix64 and AliasTable — and the stream naming
// contract: each (phase epoch, tag, token) triple names one RNG stream,
// where a token is named by its CSC position (columns word-major, each
// column's tokens in document order). Nothing here calls the sampler's
// per-item bodies or batched kernels, so Iterate() and every grid plan are
// checked against code that cannot share their bugs.
#ifndef WARPLDA_TESTS_REFERENCE_SAMPLER_H_
#define WARPLDA_TESTS_REFERENCE_SAMPLER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "baselines/sampler.h"
#include "corpus/corpus.h"
#include "util/alias_table.h"
#include "util/rng.h"

namespace warplda {

class ReferenceWarpLda {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) {
    config_ = config;
    m_ = std::max(1u, config.mh_steps);
    const uint32_t k = config.num_topics;
    beta_bar_ = config.beta * corpus.num_words();
    alpha_bar_ = config.alpha_bar();
    if (!config.alpha_vector.empty()) prior_.Build(config.alpha_vector);
    // CSC positions: column w starts after every token of words < w, and a
    // column lists its tokens in document (= insertion) order.
    col_begin_.assign(corpus.num_words() + 1, 0);
    for (DocId d = 0; d < corpus.num_docs(); ++d) {
      for (WordId w : corpus.doc_tokens(d)) ++col_begin_[w + 1];
    }
    for (WordId w = 0; w < corpus.num_words(); ++w) {
      col_begin_[w + 1] += col_begin_[w];
    }
    std::vector<uint64_t> cursor(col_begin_.begin(), col_begin_.end() - 1);
    rows_.assign(corpus.num_docs(), {});
    for (DocId d = 0; d < corpus.num_docs(); ++d) {
      for (WordId w : corpus.doc_tokens(d)) rows_[d].push_back(cursor[w]++);
    }
    const uint64_t n = col_begin_.back();
    z_.resize(n);
    ck_.assign(k, 0);
    Rng init(config.seed);
    for (uint64_t pos = 0; pos < n; ++pos) {
      z_[pos] = init.NextInt(k);
      ++ck_[z_[pos]];
    }
    props_.assign(n * m_, 0);
    epoch_ = 0;
    for (const auto& row : rows_) DrawDocProposals(row, Base(epoch_));
  }

  /// Word pass: per column, accept the pending doc proposals against the
  /// column's pre-pass counts, then draw word proposals from the
  /// post-accept counts.
  void WordPass() {
    const uint64_t base = Base(++epoch_);
    ck_fixed_ = ck_;
    for (size_t w = 0; w + 1 < col_begin_.size(); ++w) {
      const uint64_t b = col_begin_[w];
      const uint64_t e = col_begin_[w + 1];
      if (b == e) continue;
      const std::map<TopicId, int32_t> cw = Histogram(b, e);
      for (uint64_t pos = b; pos < e; ++pos) {
        z_[pos] = Chain(cw, nullptr, config_.beta, pos, base);
      }
      std::vector<std::pair<uint32_t, double>> entries;
      for (const auto& [topic, count] : Histogram(b, e)) {
        entries.emplace_back(topic, static_cast<double>(count));
      }
      AliasTable alias;
      alias.BuildSparse(entries);
      const double len = static_cast<double>(e - b);
      const double count_prob = len / (len + config_.beta * config_.num_topics);
      for (uint64_t pos = b; pos < e; ++pos) {
        Rng rng = Stream(base, kPropose, pos);
        for (uint32_t j = 0; j < m_; ++j) {
          props_[pos * m_ + j] = rng.NextBernoulli(count_prob)
                                     ? alias.Sample(rng)
                                     : rng.NextInt(config_.num_topics);
        }
      }
    }
  }

  /// Doc pass: per row, accept the pending word proposals against the row's
  /// pre-pass counts, then draw doc proposals from the post-accept row.
  void DocPass() {
    const uint64_t base = Base(++epoch_);
    ck_fixed_ = ck_;
    const std::vector<double>* alpha_vec =
        config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
    for (const auto& row : rows_) {
      if (row.empty()) continue;
      std::map<TopicId, int32_t> cd;
      for (uint64_t pos : row) ++cd[z_[pos]];
      for (uint64_t pos : row) {
        z_[pos] = Chain(cd, alpha_vec, config_.alpha, pos, base);
      }
      DrawDocProposals(row, base);
    }
  }

  void Iterate() {
    WordPass();
    DocPass();
  }

  /// Assignments in corpus token order, as Sampler::Assignments() reports.
  std::vector<TopicId> Assignments() const {
    std::vector<TopicId> out;
    for (const auto& row : rows_) {
      for (uint64_t pos : row) out.push_back(z_[pos]);
    }
    return out;
  }
  const std::vector<int64_t>& topic_counts() const { return ck_; }

 private:
  static constexpr uint32_t kAccept = 0x51;
  static constexpr uint32_t kPropose = 0xA3;

  uint64_t Base(uint64_t epoch) const {
    return SplitMix64(config_.seed ^ (epoch * 0x9E3779B97F4A7C15ULL));
  }
  static Rng Stream(uint64_t base, uint32_t tag, uint64_t token) {
    return Rng(SplitMix64(base ^ (static_cast<uint64_t>(tag) << 56) ^ token));
  }
  std::map<TopicId, int32_t> Histogram(uint64_t b, uint64_t e) const {
    std::map<TopicId, int32_t> h;
    for (uint64_t pos = b; pos < e; ++pos) ++h[z_[pos]];
    return h;
  }
  static int32_t Count(const std::map<TopicId, int32_t>& c, TopicId t) {
    const auto it = c.find(t);
    return it == c.end() ? 0 : it->second;
  }

  /// One token's M-step MH chain (Eq. 7) against delayed counts: the scope's
  /// snapshot `c` and the pass's c_k snapshot. Moves land in the live c_k.
  TopicId Chain(const std::map<TopicId, int32_t>& c,
                const std::vector<double>* prior_vec, double prior,
                uint64_t pos, uint64_t base) {
    TopicId s = z_[pos];
    Rng rng;
    bool seeded = false;
    for (uint32_t j = 0; j < m_; ++j) {
      const TopicId t = props_[pos * m_ + j];
      if (t == s) continue;
      const double prior_t = prior_vec ? (*prior_vec)[t] : prior;
      const double prior_s = prior_vec ? (*prior_vec)[s] : prior;
      const double ratio = (Count(c, t) + prior_t) * (ck_fixed_[s] + beta_bar_) /
                           ((Count(c, s) + prior_s) * (ck_fixed_[t] + beta_bar_));
      bool take = ratio >= 1.0;
      if (!take) {
        if (!seeded) rng = Stream(base, kAccept, pos);
        seeded = true;
        take = rng.NextBernoulli(ratio);
      }
      if (take) {
        --ck_[s];
        ++ck_[t];
        s = t;
      }
    }
    return s;
  }

  /// q_doc ∝ C_dk + α_k (§4.3): random positioning into the row with
  /// probability L_d/(L_d + ᾱ), otherwise a draw from the prior.
  void DrawDocProposals(const std::vector<uint64_t>& row, uint64_t base) {
    const uint32_t len = static_cast<uint32_t>(row.size());
    const double position_prob = len / (len + alpha_bar_);
    for (uint64_t pos : row) {
      Rng rng = Stream(base, kPropose, pos);
      for (uint32_t j = 0; j < m_; ++j) {
        TopicId& slot = props_[pos * m_ + j];
        if (rng.NextBernoulli(position_prob)) {
          slot = z_[row[rng.NextInt(len)]];
        } else {
          slot = config_.alpha_vector.empty() ? rng.NextInt(config_.num_topics)
                                              : prior_.Sample(rng);
        }
      }
    }
  }

  LdaConfig config_;
  uint32_t m_ = 1;
  double alpha_bar_ = 0.0;
  double beta_bar_ = 0.0;
  AliasTable prior_;
  std::vector<uint64_t> col_begin_;           // num_words + 1
  std::vector<std::vector<uint64_t>> rows_;   // per doc, CSC positions
  std::vector<TopicId> z_;                    // CSC order
  std::vector<TopicId> props_;                // M per token, CSC order
  std::vector<int64_t> ck_;
  std::vector<int64_t> ck_fixed_;
  uint64_t epoch_ = 0;
};

}  // namespace warplda

#endif  // WARPLDA_TESTS_REFERENCE_SAMPLER_H_
