#include "core/warp_lda.h"

#include <algorithm>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/parallel_executor.h"
#include "obs/metrics.h"

namespace warplda {

namespace {

/// Cached registry handles for the sampler-level counters (see
/// FlushScratchMetrics; the hot path only bumps plain per-worker fields).
struct SamplerMetrics {
  obs::Counter* tokens;
  obs::Counter* proposals;
  obs::Counter* accepts;
  obs::Counter* alias_builds;

  static const SamplerMetrics& Get() {
    static const SamplerMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      SamplerMetrics sm;
      sm.tokens = reg.GetCounter("trainer_tokens_sampled_total",
                                 "Tokens run through an MH acceptance chain");
      sm.proposals = reg.GetCounter(
          "trainer_mh_proposals_total",
          "Non-self MH proposals considered (accept rate = accepts/this)");
      sm.accepts = reg.GetCounter("trainer_mh_accepts_total",
                                  "MH proposals accepted (topic moved)");
      sm.alias_builds = reg.GetCounter(
          "trainer_alias_rebuilds_total",
          "Word-proposal alias tables (re)built");
      return sm;
    }();
    return m;
  }
};

}  // namespace

// Determinism invariant: Iterate() and the grid stages (BeginSweep..EndSweep)
// must sample identically. Both therefore share the bodies below, and every
// (phase, token) pair draws from its own RNG stream: acceptance and proposal
// draws depend only on the per-phase snapshots plus the token's stream, never
// on which thread, item range or grid block processed the token first.
// Anything that would couple tokens — updating c_w/c_d during a scan, a
// shared RNG cursor — is structured out.

WarpLdaSampler::WarpLdaSampler(const WarpLdaOptions& options)
    : options_(options) {}

WarpLdaSampler::~WarpLdaSampler() = default;
WarpLdaSampler::WarpLdaSampler(WarpLdaSampler&&) = default;
WarpLdaSampler& WarpLdaSampler::operator=(WarpLdaSampler&&) = default;

void WarpLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  alpha_bar_ = config.alpha_bar();
  beta_bar_ = config.beta * corpus.num_words();
  if (!config_.alpha_vector.empty()) {
    prior_alias_.Build(config_.alpha_vector);
  }
  const uint32_t k = config_.num_topics;
  const uint32_t m = std::max(1u, config_.mh_steps);

  matrix_.Reset(corpus.num_docs(), corpus.num_words());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc_tokens(d)) matrix_.AddEntry(d, w);
  }
  matrix_.Finalize();
  proposals_.assign(matrix_.num_entries() * m, 0);

  scratch_.assign(std::max(1u, options_.num_threads), ThreadScratch());
  for (auto& s : scratch_) s.ck_delta.assign(k, 0);
  phase_epoch_ = 0;
  grid_ = GridState();
  col_counts_ = CountArena();
  row_counts_ = CountArena();
  col_alias_.clear();

  // Random initial assignments.
  ck_live_.assign(k, 0);
  Rng init_rng(config.seed);
  for (uint64_t e = 0; e < matrix_.num_entries(); ++e) {
    TopicId topic = init_rng.NextInt(k);
    matrix_.entry_data(e) = topic;
    ++ck_live_[topic];
  }
  ck_fixed_ = ck_live_;

  // Alg. 2 enters the word phase expecting pending doc proposals, so draw
  // the first batch now from the initial assignments (stream epoch 0).
  RedrawDocProposals();
}

void WarpLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  alpha_bar_ = alpha * config_.num_topics;
  beta_bar_ = beta * corpus_->num_words();
}

std::shared_ptr<const TopicModel> WarpLdaSampler::ExportSharedModel() const {
  return std::make_shared<const TopicModel>(*corpus_, Assignments(),
                                            config_.num_topics, config_.alpha,
                                            config_.beta);
}

std::shared_ptr<const TopicModel> WarpLdaSampler::ExportSharedModel(
    std::vector<WordId>* changed_words) {
  return TrackExportDelta(ExportSharedModel(), &last_export_, changed_words);
}

void WarpLdaSampler::SetAssignments(const std::vector<TopicId>& assignments) {
  if (grid_.open) {
    throw std::logic_error(
        "WarpLdaSampler: SetAssignments() during an active grid sweep");
  }
  std::fill(ck_live_.begin(), ck_live_.end(), 0);
  for (uint64_t t = 0; t < assignments.size(); ++t) {
    matrix_.entry_data(matrix_.csc_position(t)) = assignments[t];
    ++ck_live_[assignments[t]];
  }
  ck_fixed_ = ck_live_;
  // Refresh the pending proposals so the next word phase consumes proposals
  // drawn from the restored state (mirrors the tail of Init()).
  RedrawDocProposals();
}

std::vector<TopicId> WarpLdaSampler::Assignments() const {
  std::vector<TopicId> out(matrix_.num_entries());
  for (uint64_t t = 0; t < out.size(); ++t) {
    out[t] = matrix_.entry_data(matrix_.csc_position(t));
  }
  return out;
}

void WarpLdaSampler::FoldCkDeltas() {
  for (auto& s : scratch_) {
    for (uint32_t k = 0; k < config_.num_topics; ++k) {
      ck_live_[k] += s.ck_delta[k];
    }
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
  }
}

void WarpLdaSampler::BuildCounts(HashCount& counts,
                                 std::span<const TopicId> z) const {
  counts.Init(
      std::min<uint32_t>(config_.num_topics, 2 * static_cast<uint32_t>(z.size())));
  for (TopicId topic : z) counts.Inc(topic);
}

void WarpLdaSampler::BuildCounts(HashCount& counts,
                                 SparseMatrix<TopicId>::RowView row) const {
  counts.Init(std::min<uint32_t>(config_.num_topics, 2 * row.size()));
  for (uint32_t i = 0; i < row.size(); ++i) counts.Inc(row[i]);
}

template <typename Counts>
TopicId WarpLdaSampler::AcceptChain(ThreadScratch& s, const Counts& counts,
                                    TopicId current, const TopicId* props,
                                    uint32_t m,
                                    const std::vector<double>* prior_vec,
                                    double prior, uint64_t stream_base,
                                    uint64_t token) {
  int64_t* ck_delta = s.ck_delta.data();
  ++s.obs_tokens;
  Rng rng;
  bool seeded = false;
  for (uint32_t j = 0; j < m; ++j) {
    TopicId t = props[j];
    if (t == current) continue;
    ++s.obs_proposals;
    Trace(reinterpret_cast<const void*>(counts.SlotAddr(t)),
          sizeof(HashCount::Entry), /*random=*/true, /*write=*/false);
    const double prior_t = prior_vec ? (*prior_vec)[t] : prior;
    const double prior_s = prior_vec ? (*prior_vec)[current] : prior;
    // Eq. 7: delayed c_w/c_d and c_k snapshots on both sides. The expression
    // tree — (mul, mul) over a div — is replicated exactly by the batched
    // kernel (simd::ComputeAcceptRatios), keeping both paths bit-identical.
    double accept =
        (counts.Get(t) + prior_t) * (ck_fixed_[current] + beta_bar_) /
        ((counts.Get(current) + prior_s) * (ck_fixed_[t] + beta_bar_));
    bool take = accept >= 1.0;
    if (!take) {
      if (!seeded) {
        rng = StreamRng(stream_base, kTagAccept, token);
        seeded = true;
      }
      take = rng.NextBernoulli(accept);
    }
    if (take) {
      ++s.obs_accepts;
      --ck_delta[current];
      ++ck_delta[t];
      current = t;
    }
  }
  return current;
}

void WarpLdaSampler::FlushScratchMetrics() {
  uint64_t tokens = 0;
  uint64_t proposals = 0;
  uint64_t accepts = 0;
  uint64_t alias_builds = 0;
  for (auto& s : scratch_) {
    tokens += s.obs_tokens;
    proposals += s.obs_proposals;
    accepts += s.obs_accepts;
    alias_builds += s.obs_alias_builds;
    s.obs_tokens = s.obs_proposals = s.obs_accepts = s.obs_alias_builds = 0;
  }
  if (!obs::MetricsEnabled() || tokens + proposals + alias_builds == 0) return;
  const SamplerMetrics& m = SamplerMetrics::Get();
  m.tokens->Inc(tokens);
  m.proposals->Inc(proposals);
  m.accepts->Inc(accepts);
  m.alias_builds->Inc(alias_builds);
}

template <typename Counts>
void WarpLdaSampler::BuildAliasInto(ThreadScratch& scratch,
                                    const Counts& counts, AliasTable& alias) {
  // Alg. 2 builds the alias table over the post-acceptance C_wk: q_word ∝
  // C_wk + β as a mixture of this count-weighted table and the uniform β
  // branch. Entries are sorted by topic so the bin layout is a pure function
  // of the count values: a whole-column body (which patches its private
  // snapshot with the move list) and an unfused grid plan (which patches the
  // shared column arena with the staged moves at the barrier) insert keys in
  // different orders yet load identical tables.
  ++scratch.obs_alias_builds;
  scratch.alias_entries.clear();
  counts.ForEachNonZero([&](uint32_t k, int32_t c) {
    scratch.alias_entries.emplace_back(k, static_cast<double>(c));
  });
  std::sort(scratch.alias_entries.begin(), scratch.alias_entries.end());
  alias.BuildSparse(scratch.alias_entries);
}

void WarpLdaSampler::DrawWordProposalsInto(TopicId* slot,
                                           const AliasTable& alias, Rng& rng,
                                           double count_prob) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  const uint32_t k_topics = config_.num_topics;
  for (uint32_t j = 0; j < m; ++j) {
    slot[j] = rng.NextBernoulli(count_prob) ? alias.Sample(rng)
                                            : rng.NextInt(k_topics);
  }
}

template <typename Values>
void WarpLdaSampler::DrawDocProposalsInto(TopicId* slot, const Values& values,
                                          uint32_t len, Rng& rng,
                                          double position_prob) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  const uint32_t k_topics = config_.num_topics;
  const bool asymmetric = !config_.alpha_vector.empty();
  for (uint32_t j = 0; j < m; ++j) {
    if (rng.NextBernoulli(position_prob)) {
      slot[j] = values[rng.NextInt(len)];
    } else {
      slot[j] = asymmetric ? prior_alias_.Sample(rng) : rng.NextInt(k_topics);
    }
  }
}

void WarpLdaSampler::DrawWordProposalsForSegment(ThreadScratch& s,
                                                 const uint64_t* positions,
                                                 uint32_t n,
                                                 const AliasTable& alias,
                                                 uint32_t col_len,
                                                 uint64_t stream_base) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  // q_word ∝ C_wk + β: the count branch with probability L_w/(L_w + Kβ).
  const double lw = static_cast<double>(col_len);
  const double count_prob = lw / (lw + config_.beta * config_.num_topics);
  if (s.rng_states.size() < n) s.rng_states.resize(n);
  simd::DeriveStreamStates(stream_base, kTagPropose, positions, n,
                           s.rng_states.data(), options_.force_scalar_kernels);
  for (uint32_t i = 0; i < n; ++i) {
    Rng rng = simd::RngFromState(s.rng_states[i]);
    DrawWordProposalsInto(&proposals_[positions[i] * m], alias, rng,
                          count_prob);
  }
}

template <typename Values>
void WarpLdaSampler::DrawDocProposalsForSegment(ThreadScratch& s,
                                                const uint64_t* positions,
                                                uint32_t n,
                                                const Values& values,
                                                uint32_t len,
                                                uint64_t stream_base) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  // q_doc ∝ C_dk + α_k as the mixture of §4.3: with probability L_d/(L_d+ᾱ)
  // random positioning into z_d, otherwise a draw from the prior (uniform
  // for symmetric α, alias table over α_k otherwise).
  const double position_prob =
      static_cast<double>(len) / (static_cast<double>(len) + alpha_bar_);
  if (s.rng_states.size() < n) s.rng_states.resize(n);
  simd::DeriveStreamStates(stream_base, kTagPropose, positions, n,
                           s.rng_states.data(), options_.force_scalar_kernels);
  for (uint32_t i = 0; i < n; ++i) {
    Rng rng = simd::RngFromState(s.rng_states[i]);
    DrawDocProposalsInto(&proposals_[positions[i] * m], values, len, rng,
                         position_prob);
  }
}

void WarpLdaSampler::DrawDocProposalsItemRange(ThreadScratch& s,
                                               uint32_t begin, uint32_t end,
                                               uint64_t stream_base) {
  for (DocId d = begin; d < end; ++d) {
    const auto row = matrix_.row(d);
    if (row.size() == 0) continue;
    DrawDocProposalsForSegment(s, row.entries(), row.size(), row, row.size(),
                               stream_base);
  }
}

void WarpLdaSampler::RedrawDocProposals() {
  const uint64_t stream_base = StreamBase(phase_epoch_);
  RunItemRanges(
      OwnedPool(), corpus_->num_docs(),
      [&](uint32_t d) { return matrix_.row_offset(d); },
      [&](uint32_t worker, uint32_t begin, uint32_t end) {
        DrawDocProposalsItemRange(scratch_[worker], begin, end, stream_base);
      });
}

void WarpLdaSampler::SampleColumnItemRange(ThreadScratch& s, uint32_t begin,
                                           uint32_t end,
                                           uint64_t stream_base) {
  const double beta = config_.beta;
  for (WordId w = begin; w < end; ++w) {
    const std::span<const TopicId> z = matrix_.col_data(w);
    const uint32_t n = static_cast<uint32_t>(z.size());
    if (n == 0) continue;
    // c_w on the fly: the delayed snapshot every acceptance of this column
    // reads (Alg. 2), so tokens stay order-independent.
    BuildCounts(s.counts, z);
    Trace(reinterpret_cast<const void*>(s.counts.slots().data()),
          s.counts.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
          /*random=*/true, /*write=*/true);
    if (s.positions.size() < n) s.positions.resize(n);
    const uint64_t base = matrix_.col_offset(w);
    for (uint32_t i = 0; i < n; ++i) s.positions[i] = base + i;
    const size_t moves_before = s.staged_moves.size();
    AcceptSegment(s, s.counts, s.positions.data(), n, nullptr, beta,
                  stream_base, w, /*final_topics=*/nullptr);
    // Post-acceptance c_w for the proposals: patch the snapshot with the
    // moves' endpoints (an intermediate chain hop nets out) instead of
    // rescanning the column.
    for (size_t i = moves_before; i < s.staged_moves.size(); ++i) {
      s.counts.Dec(s.staged_moves[i].from);
      s.counts.Inc(s.staged_moves[i].to);
    }
    BuildAliasInto(s, s.counts, s.alias);
    DrawWordProposalsForSegment(s, s.positions.data(), n, s.alias, n,
                                stream_base);
    TraceScopeEnd();
  }
}

void WarpLdaSampler::SampleRowItemRange(ThreadScratch& s, uint32_t begin,
                                        uint32_t end, uint64_t stream_base,
                                        bool propose) {
  const std::vector<double>* alpha_vec =
      config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
  const double alpha = config_.alpha;
  for (DocId d = begin; d < end; ++d) {
    const auto row = matrix_.row(d);
    const uint32_t n = row.size();
    if (n == 0) continue;
    // c_d on the fly (delayed snapshot for this document).
    BuildCounts(s.counts, row);
    Trace(reinterpret_cast<const void*>(s.counts.slots().data()),
          s.counts.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
          /*random=*/true, /*write=*/true);
    // Accept the pending word proposals (Eq. 7, π^word); the row's
    // post-accept topics land in local_row for the propose half.
    if (propose && s.local_row.size() < n) s.local_row.resize(n);
    AcceptSegment(s, s.counts, row.entries(), n, alpha_vec, alpha,
                  stream_base, d, propose ? s.local_row.data() : nullptr);
    if (propose) {
      DrawDocProposalsForSegment(s, row.entries(), n, s.local_row.data(), n,
                                 stream_base);
    }
    TraceScopeEnd();
  }
}

void WarpLdaSampler::SampleOwnedItemRange(ThreadScratch& s, bool word_axis,
                                          uint32_t begin, uint32_t end,
                                          uint64_t stream_base) {
  for (uint32_t item = begin; item < end; ++item) {
    if (word_axis) {
      SampleColumnItemRange(s, item, item + 1, stream_base);
    } else {
      SampleRowItemRange(s, item, item + 1, stream_base, /*propose=*/true);
    }
    for (const StagedMove& mv : s.staged_moves) {
      matrix_.entry_data(mv.pos) = mv.to;
    }
    s.staged_moves.clear();
  }
}

void WarpLdaSampler::Iterate() {
  if (corpus_ == nullptr) {
    throw std::logic_error("WarpLdaSampler: Init() must precede Iterate()");
  }
  if (grid_.open) {
    throw std::logic_error(
        "WarpLdaSampler: Iterate() during an active grid sweep");
  }
  // The trivial plan's two whole-item spans, each one pass of item-range
  // tasks with a fold at its end. Stream bases are minted as BeginSweep
  // mints them, so the two paths draw from the same streams.
  phase_epoch_ += 2;
  const uint64_t base_word = StreamBase(phase_epoch_ - 1);
  const uint64_t base_doc = StreamBase(phase_epoch_);
  ParallelExecutor* pool = OwnedPool();

  ck_fixed_ = ck_live_;
  RunItemRanges(
      pool, corpus_->num_words(),
      [&](uint32_t w) { return matrix_.col_offset(w); },
      [&](uint32_t worker, uint32_t begin, uint32_t end) {
        SampleOwnedItemRange(scratch_[worker], /*word_axis=*/true, begin,
                             end, base_word);
      });
  FoldCkDeltas();

  ck_fixed_ = ck_live_;
  RunItemRanges(
      pool, corpus_->num_docs(),
      [&](uint32_t d) { return matrix_.row_offset(d); },
      [&](uint32_t worker, uint32_t begin, uint32_t end) {
        SampleOwnedItemRange(scratch_[worker], /*word_axis=*/false, begin,
                             end, base_doc);
      });
  FoldCkDeltas();
  FlushScratchMetrics();
}

// --------------------------------------------------------------------------
// Grid execution. Stages defer their writes (accepted topics go to the
// calling worker's staged-move list, count updates to its ck-delta
// partition) and apply them at the EndStage barrier, so every block of a
// stage observes the same pre-stage state no matter the schedule. Combined
// with the per-token RNG streams this makes any grid — including the 1×1
// plan and Iterate() — sample identically, on any number of workers: a
// block body reads only shared *immutable* span state (z, the count arenas,
// the column alias tables) and writes only its own tokens' proposal slots
// plus scratch_[worker], so concurrent blocks share no mutable memory
// (ParallelExecutor relies on exactly this).
//
// Stage fusion merges adjacent stages into one RunBlock pass per block
// where the write-set proof holds:
//  * [word-propose, doc-accept] is always legal: a block's word-propose
//    writes only its own tokens' proposal slots, and its doc-accept reads
//    only its own tokens' proposals — the same token set, written earlier in
//    the same call. z is stable across the pair (propose never writes z, and
//    accept stages its writes), so the row snapshots are schedule-invariant.
//  * [word-accept, word-propose] requires cols_ok (every column inside one
//    doc block): propose's alias table needs the whole column's
//    post-acceptance counts, which only that block computed.
//  * [doc-accept, doc-propose] requires rows_ok (every row inside one word
//    block): propose positions into the whole row's post-acceptance topics,
//    patched locally (ThreadScratch::local_row) before the barrier.
// Fusion never changes the samples — only which barriers exist. Where a
// span's segments are whole items (cols_ok for [wa, wp], rows_ok for any
// doc-accept) the blocks run the whole-item bodies Iterate() runs, and
// c_w/c_d stream through the worker's HashCount instead of an arena.

void WarpLdaSampler::ReserveWorkers(uint32_t num_workers) {
  if (corpus_ == nullptr) {
    throw std::logic_error(
        "WarpLdaSampler: Init() must precede ReserveWorkers()");
  }
  if (grid_.open) {
    // Growing the pool is safe whenever no block is in flight — between
    // sweeps or at a stage barrier (where FinishSweep resumes a restored
    // sweep, possibly with more workers than the checkpointing run had).
    for (char ran : grid_.block_ran) {
      if (ran) {
        throw std::logic_error(
            "WarpLdaSampler: ReserveWorkers() with stage blocks in flight");
      }
    }
  }
  GrowScratch(num_workers);
}

void WarpLdaSampler::GrowScratch(uint32_t num_workers) {
  while (scratch_.size() < num_workers) {
    scratch_.emplace_back().ck_delta.assign(config_.num_topics, 0);
  }
}

void WarpLdaSampler::BeginSweep(const SweepPlan& plan) {
  if (corpus_ == nullptr) {
    throw std::logic_error("WarpLdaSampler: Init() must precede BeginSweep()");
  }
  if (grid_.open) {
    throw std::logic_error("WarpLdaSampler: a grid sweep is already active");
  }
  std::string error;
  if (!plan.Validate(corpus_->num_docs(), corpus_->num_words(), &error)) {
    throw std::invalid_argument("WarpLdaSampler: invalid SweepPlan: " + error);
  }
  if (!local_blocks_.empty() &&
      local_blocks_.size() !=
          static_cast<size_t>(plan.num_doc_blocks) * plan.num_word_blocks) {
    throw std::invalid_argument(
        "WarpLdaSampler: SetLocalBlocks mask sized for a different plan");
  }
  BuildGridIndices(plan);
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
    s.staged_moves.clear();
  }
  grid_.block_ran.assign(
      static_cast<size_t>(plan.num_doc_blocks) * plan.num_word_blocks, 0);
  // Mint both phase stream bases up front (as Iterate() does), so a
  // checkpoint at any barrier carries both.
  phase_epoch_ += 2;
  grid_.base_word = StreamBase(phase_epoch_ - 1);
  grid_.base_doc = StreamBase(phase_epoch_);
  grid_.col_filled = false;
  grid_.stage = SweepStage::kWordAccept;
  grid_.open = true;
  EnterSpan(SweepStage::kWordAccept);
}

void WarpLdaSampler::BuildGridIndices(const SweepPlan& plan) {
  if (grid_.indices_built && plan == grid_.plan) return;
  grid_.plan = plan;
  const uint32_t num_wb = plan.num_word_blocks;
  const uint32_t num_db = plan.num_doc_blocks;
  const size_t num_blocks = static_cast<size_t>(num_db) * num_wb;
  grid_.word_ix.assign(num_blocks, {});
  grid_.doc_ix.assign(num_blocks, {});
  grid_.cols_ok = true;
  grid_.rows_ok = true;

  // Per-entry doc-block map (scratch for the column grouping below).
  std::vector<uint32_t> entry_doc_block(matrix_.num_entries(), 0);
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    const uint32_t b = plan.doc_block.empty() ? 0 : plan.doc_block[d];
    auto row = matrix_.row(d);
    for (uint32_t i = 0; i < row.size(); ++i) {
      entry_doc_block[row.entry_index(i)] = b;
    }
  }

  // Word axis: group each column's CSC positions by doc block, giving every
  // block its exact token list up front — the per-(block × column) rescan of
  // the whole column with a per-entry filter (P redundant passes on a P×P
  // plan) is gone.
  std::vector<std::vector<uint64_t>> buckets(num_db);
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    const uint32_t wb = plan.word_block.empty() ? 0 : plan.word_block[w];
    const uint64_t base = matrix_.col_offset(w);
    const uint64_t len = matrix_.col_data(w).size();
    if (len == 0) continue;
    for (auto& bucket : buckets) bucket.clear();
    for (uint64_t p = 0; p < len; ++p) {
      buckets[entry_doc_block[base + p]].push_back(base + p);
    }
    uint32_t blocks_hit = 0;
    for (uint32_t db = 0; db < num_db; ++db) {
      if (buckets[db].empty()) continue;
      ++blocks_hit;
      BlockIndex& ix = grid_.word_ix[static_cast<size_t>(db) * num_wb + wb];
      const uint32_t begin = static_cast<uint32_t>(ix.positions.size());
      ix.positions.insert(ix.positions.end(), buckets[db].begin(),
                          buckets[db].end());
      ix.segments.push_back(
          {w, begin, static_cast<uint32_t>(ix.positions.size())});
    }
    if (blocks_hit > 1) grid_.cols_ok = false;
  }

  // Doc axis: same grouping, rows by word block, preserving row order so a
  // rows_ok segment's positions line up with the row's own indices.
  buckets.assign(num_wb, {});
  std::vector<uint32_t> entry_word_block(matrix_.num_entries(), 0);
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    const uint32_t wb = plan.word_block.empty() ? 0 : plan.word_block[w];
    const uint64_t base = matrix_.col_offset(w);
    const uint64_t len = matrix_.col_data(w).size();
    for (uint64_t p = 0; p < len; ++p) entry_word_block[base + p] = wb;
  }
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    const uint32_t db = plan.doc_block.empty() ? 0 : plan.doc_block[d];
    auto row = matrix_.row(d);
    if (row.size() == 0) continue;
    for (auto& bucket : buckets) bucket.clear();
    for (uint32_t i = 0; i < row.size(); ++i) {
      buckets[entry_word_block[row.entry_index(i)]].push_back(
          row.entry_index(i));
    }
    uint32_t blocks_hit = 0;
    for (uint32_t wb = 0; wb < num_wb; ++wb) {
      if (buckets[wb].empty()) continue;
      ++blocks_hit;
      BlockIndex& ix = grid_.doc_ix[static_cast<size_t>(db) * num_wb + wb];
      const uint32_t begin = static_cast<uint32_t>(ix.positions.size());
      ix.positions.insert(ix.positions.end(), buckets[wb].begin(),
                          buckets[wb].end());
      ix.segments.push_back(
          {d, begin, static_cast<uint32_t>(ix.positions.size())});
    }
    if (blocks_hit > 1) grid_.rows_ok = false;
  }
  grid_.indices_built = true;
}

int WarpLdaSampler::SpanLength(SweepStage s) const {
  switch (s) {
    case SweepStage::kWordAccept:
      return grid_.cols_ok ? 2 : 1;
    case SweepStage::kWordPropose:
      return 2;  // [word-propose, doc-accept] is legal on every plan
    case SweepStage::kDocAccept:
      return grid_.rows_ok ? 2 : 1;
    default:
      return 1;
  }
}

void WarpLdaSampler::EnterSpan(SweepStage begin) {
  const int len = SpanLength(begin);
  // Snapshot refresh: any span containing an accept stage needs ck_fixed =
  // the fold state at its phase boundary. Word-propose entry refreshes to
  // the post word-accept fold for its fused doc-accept half (word-propose
  // itself never reads it). Doc-propose entry must NOT refresh: its barrier
  // checkpoint carries the doc-accept snapshot, not the post-doc-accept
  // fold.
  if (begin != SweepStage::kDocPropose) ck_fixed_ = ck_live_;
  switch (begin) {
    case SweepStage::kWordAccept:
      // Unfused word-accept blocks read the shared column tables; the fused
      // [wa, wp] body builds its own per-column snapshot instead.
      if (len == 1) BuildColArena();
      break;
    case SweepStage::kWordPropose:
      // Post-acceptance column counts: patched in place at the word-accept
      // barrier, or rebuilt from z on the restore path (where z is already
      // post-acceptance).
      if (!grid_.col_filled) BuildColArena();
      BuildColAliases();
      // The fused doc-accept half reads row tables unless its segments are
      // whole rows, which stream c_d instead.
      if (!grid_.rows_ok) BuildRowArena();
      break;
    case SweepStage::kDocAccept:
      if (!grid_.rows_ok) BuildRowArena();
      break;
    default:
      break;
  }
}

void WarpLdaSampler::EnsureColArenaGeometry() {
  if (col_counts_.ready) return;
  std::vector<uint32_t> hints(corpus_->num_words());
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    hints[w] = std::min<uint32_t>(
        config_.num_topics,
        2 * static_cast<uint32_t>(matrix_.col_data(w).size()));
  }
  col_counts_.AllocateFromHints(hints);
}

void WarpLdaSampler::EnsureRowArenaGeometry() {
  if (row_counts_.ready) return;
  std::vector<uint32_t> hints(corpus_->num_docs());
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    hints[d] = std::min<uint32_t>(config_.num_topics,
                                  2 * matrix_.row(d).size());
  }
  row_counts_.AllocateFromHints(hints);
}

// Item-range tasks: barrier-side builds run on the executor driving the
// sweep (ParallelExecutor::DriverScoped()), Iterate()'s passes on the owned
// pool, both inline without one. Every item's result depends only on the
// pre-pass state and the item itself, and each task writes only its own
// contiguous item range — a disjoint slice of the arena slab, disjoint
// col_alias_ entries, its items' z and proposal slots — plus
// scratch_[worker], so the result is the serial pass's, bit for bit, at any
// width.
ParallelExecutor* WarpLdaSampler::OwnedPool() {
  if (options_.num_threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ParallelExecutor>(options_.num_threads);
  }
  return pool_.get();
}

template <typename Weight, typename Fn>
void WarpLdaSampler::RunItemRanges(ParallelExecutor* pool, uint32_t num_items,
                                   const Weight& weight, const Fn& fn) {
  if (pool == nullptr || pool->num_threads() == 1) {
    fn(0u, 0u, num_items);
    return;
  }
  GrowScratch(pool->num_threads());
  // Cut [0, num_items) at equal shares of the cost prefix weight(i), not of
  // the item count: Zipf-heavy columns would otherwise pile into one chunk.
  const uint32_t chunks =
      std::min(num_items, kItemChunksPerThread * pool->num_threads());
  const uint64_t total = weight(num_items);
  std::vector<uint32_t> bounds(chunks + 1, num_items);
  bounds[0] = 0;
  uint32_t lo = 0;
  for (uint32_t c = 1; c < chunks; ++c) {
    const uint64_t target = total * c / chunks;
    uint32_t hi = num_items;
    while (lo < hi) {  // first item at or past the target share
      const uint32_t mid = lo + (hi - lo) / 2;
      if (weight(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[c] = lo;
  }
  pool->Run(chunks, [&](uint32_t worker, uint32_t c) {
    fn(worker, bounds[c], bounds[c + 1]);
  });
}

uint64_t WarpLdaSampler::ColCostPrefix(uint32_t w) const {
  // A column's build cost ~ its arena slots (clear, alias scan) plus its
  // tokens (fill): Zipf-heavy columns outweigh their slot capacity.
  return col_counts_.offset[w] + matrix_.col_offset(w);
}

void WarpLdaSampler::BuildColArena() {
  EnsureColArenaGeometry();
  RunItemRanges(
      ParallelExecutor::DriverScoped(), corpus_->num_words(),
      [&](uint32_t w) { return ColCostPrefix(w); },
      [&](uint32_t, uint32_t begin, uint32_t end) {
        FillColArenaItemRange(begin, end);
      });
  grid_.col_filled = true;
}

void WarpLdaSampler::FillColArenaItemRange(uint32_t begin, uint32_t end) {
  col_counts_.ClearItems(begin, end);
  for (WordId w = begin; w < end; ++w) {
    FlatCounts counts = col_counts_.view(w);
    for (TopicId topic : matrix_.col_data(w)) counts.Inc(topic);
  }
}

void WarpLdaSampler::BuildRowArena() {
  EnsureRowArenaGeometry();
  // Row tables are only ever read by doc-accept block bodies, so a
  // SetLocalBlocks filter restricts the fill to the rows owned blocks
  // actually visit (unlike the column arena, which the word-accept barrier
  // patches for every block's moves and must stay complete).
  const std::vector<char> needed = LocalItemFilter(/*word_axis=*/false);
  RunItemRanges(
      ParallelExecutor::DriverScoped(), corpus_->num_docs(),
      [&](uint32_t d) { return row_counts_.offset[d]; },
      [&](uint32_t, uint32_t begin, uint32_t end) {
        FillRowArenaItemRange(needed, begin, end);
      });
}

void WarpLdaSampler::FillRowArenaItemRange(const std::vector<char>& needed,
                                           uint32_t begin, uint32_t end) {
  row_counts_.ClearItems(begin, end);
  for (DocId d = begin; d < end; ++d) {
    if (!needed.empty() && !needed[d]) continue;
    auto row = matrix_.row(d);
    FlatCounts counts = row_counts_.view(d);
    for (uint32_t i = 0; i < row.size(); ++i) counts.Inc(row[i]);
  }
}

void WarpLdaSampler::BuildColAliases() {
  col_alias_.resize(corpus_->num_words());
  // One order-stable build per column per sweep — not per (block × column).
  // Under a SetLocalBlocks filter only the columns an owned block will read
  // are built: a distributed worker skips the (V − V/P) tables whose
  // propose work happens in other processes.
  const std::vector<char> needed = LocalItemFilter(/*word_axis=*/true);
  RunItemRanges(
      ParallelExecutor::DriverScoped(), corpus_->num_words(),
      [&](uint32_t w) { return ColCostPrefix(w); },
      [&](uint32_t worker, uint32_t begin, uint32_t end) {
        BuildColAliasItemRange(worker, needed, begin, end);
      });
}

void WarpLdaSampler::BuildColAliasItemRange(uint32_t worker,
                                            const std::vector<char>& needed,
                                            uint32_t begin, uint32_t end) {
  ThreadScratch& s = scratch_[worker];
  for (WordId w = begin; w < end; ++w) {
    if (matrix_.col_data(w).empty()) continue;
    if (!needed.empty() && !needed[w]) continue;
    const FlatCounts counts = col_counts_.view(w);
    BuildAliasInto(s, counts, col_alias_[w]);
  }
}

void WarpLdaSampler::RunBlock(uint32_t doc_block, uint32_t word_block,
                              uint32_t worker) {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: RunBlock() without BeginSweep()");
  }
  if (grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: RunBlock() after all stages completed");
  }
  if (doc_block >= grid_.plan.num_doc_blocks ||
      word_block >= grid_.plan.num_word_blocks) {
    throw std::invalid_argument("WarpLdaSampler: block index out of range");
  }
  if (worker >= scratch_.size()) {
    throw std::invalid_argument(
        "WarpLdaSampler: worker id " + std::to_string(worker) +
        " out of range; ReserveWorkers() before the sweep");
  }
  char& ran =
      grid_.block_ran[static_cast<size_t>(doc_block) *
                          grid_.plan.num_word_blocks +
                      word_block];
  if (ran) {
    throw std::logic_error(std::string("WarpLdaSampler: block ran twice in ") +
                           ToString(grid_.stage) + " stage");
  }
  ran = 1;
  ThreadScratch& scratch = scratch_[worker];
  const int len = SpanLength(grid_.stage);
  switch (grid_.stage) {
    case SweepStage::kWordAccept:
      if (len == 2) {
        RunFusedWordPart(doc_block, word_block, scratch);
      } else {
        RunWordAcceptPart(doc_block, word_block, scratch);
      }
      break;
    case SweepStage::kWordPropose:
      RunWordProposePart(doc_block, word_block, scratch);
      // [wp, da]: this block's doc-accept reads exactly the proposals its
      // word-propose half just wrote (the block's token set is the same on
      // both axes), so no barrier is needed between them.
      RunDocAcceptPart(doc_block, word_block, scratch,
                       /*fused_propose=*/false);
      break;
    case SweepStage::kDocAccept:
      RunDocAcceptPart(doc_block, word_block, scratch,
                       /*fused_propose=*/len == 2);
      break;
    case SweepStage::kDocPropose:
      RunDocProposePart(doc_block, word_block, scratch);
      break;
    case SweepStage::kDone:
      break;  // unreachable, checked above
  }
}

template <typename Counts>
void WarpLdaSampler::AcceptSegment(ThreadScratch& s, const Counts& counts,
                                   const uint64_t* positions, uint32_t n,
                                   const std::vector<double>* prior_vec,
                                   double prior, uint64_t stream_base,
                                   uint32_t move_item, TopicId* final_topics) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  if (tracer_ != nullptr) {
    // The batched path elides the per-proposal slot probes the cache tracer
    // replays, so trace runs take the scalar reference chain token by token.
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t pos = positions[i];
      const TopicId before = matrix_.entry_data(pos);
      const TopicId after =
          AcceptChain(s, counts, before, &proposals_[pos * m], m, prior_vec,
                      prior, stream_base, pos);
      if (after != before) s.staged_moves.push_back({pos, move_item, before, after});
      if (final_topics != nullptr) final_topics[i] = after;
    }
    return;
  }
  const bool force_scalar = options_.force_scalar_kernels;
  if (s.bat_ca.size() < kAcceptChunk) {
    s.bat_ca.resize(kAcceptChunk);
    s.bat_cb.resize(kAcceptChunk);
    s.bat_cur.resize(kAcceptChunk);
    s.bat_ratio.resize(kAcceptChunk);
    s.bat_ge1.resize(kAcceptChunk);
    s.bat_seeded.resize(kAcceptChunk);
    s.bat_rng.resize(kAcceptChunk);
  }
  const size_t steps_cap = static_cast<size_t>(m) * kAcceptChunk;
  if (s.bat_ta.size() < steps_cap) {
    s.bat_ta.resize(steps_cap);
    s.bat_tb.resize(steps_cap);
    s.bat_topic.resize(steps_cap);
  }
  int64_t* ck_delta = s.ck_delta.data();
  for (uint32_t chunk = 0; chunk < n; chunk += kAcceptChunk) {
    const uint32_t nb = std::min(kAcceptChunk, n - chunk);
    const uint64_t* chunk_pos = positions + chunk;
    // Gather pass: every operand of every chain step, SoA per step. The
    // count table is a delayed snapshot — immutable for the whole stage —
    // so step j's operands can be fetched before steps 0..j-1 resolve.
    for (uint32_t t = 0; t < nb; ++t) {
      const uint64_t pos = chunk_pos[t];
      const TopicId cur = matrix_.entry_data(pos);
      s.bat_cur[t] = cur;
      s.bat_ca[t] = counts.Get(cur) + (prior_vec ? (*prior_vec)[cur] : prior);
      s.bat_cb[t] = ck_fixed_[cur] + beta_bar_;
      s.bat_seeded[t] = 0;
      const TopicId* props = &proposals_[pos * m];
      for (uint32_t j = 0; j < m; ++j) {
        const TopicId p = props[j];
        s.bat_topic[j * kAcceptChunk + t] = p;
        s.bat_ta[j * kAcceptChunk + t] =
            counts.Get(p) + (prior_vec ? (*prior_vec)[p] : prior);
        s.bat_tb[j * kAcceptChunk + t] = ck_fixed_[p] + beta_bar_;
      }
    }
    s.obs_tokens += nb;
    // Chain steps: vectorized ratio compute over the whole chunk, then a
    // sequential resolve that reproduces the scalar chain exactly — same
    // self-proposal skips, same lazy per-token stream seeding, same
    // Bernoulli consumption, and on accept the running (a, b) switch to the
    // target's gathered operands (legal because the snapshot is immutable).
    for (uint32_t j = 0; j < m; ++j) {
      const double* a_t = &s.bat_ta[static_cast<size_t>(j) * kAcceptChunk];
      const double* b_t = &s.bat_tb[static_cast<size_t>(j) * kAcceptChunk];
      const uint32_t* topic =
          &s.bat_topic[static_cast<size_t>(j) * kAcceptChunk];
      simd::ComputeAcceptRatios(nb, a_t, b_t, s.bat_ca.data(),
                                s.bat_cb.data(), s.bat_ratio.data(),
                                s.bat_ge1.data(), force_scalar);
      for (uint32_t t = 0; t < nb; ++t) {
        const TopicId p = topic[t];
        if (p == s.bat_cur[t]) continue;
        ++s.obs_proposals;
        bool take = s.bat_ge1[t] != 0;
        if (!take) {
          if (!s.bat_seeded[t]) {
            s.bat_rng[t] = StreamRng(stream_base, kTagAccept, chunk_pos[t]);
            s.bat_seeded[t] = 1;
          }
          take = s.bat_rng[t].NextBernoulli(s.bat_ratio[t]);
        }
        if (take) {
          ++s.obs_accepts;
          --ck_delta[s.bat_cur[t]];
          ++ck_delta[p];
          s.bat_cur[t] = p;
          s.bat_ca[t] = a_t[t];
          s.bat_cb[t] = b_t[t];
        }
      }
    }
    for (uint32_t t = 0; t < nb; ++t) {
      const uint64_t pos = chunk_pos[t];
      const TopicId before = matrix_.entry_data(pos);
      const TopicId after = s.bat_cur[t];
      if (after != before) s.staged_moves.push_back({pos, move_item, before, after});
      if (final_topics != nullptr) final_topics[chunk + t] = after;
    }
  }
}

void WarpLdaSampler::RunWordAcceptPart(uint32_t doc_block,
                                       uint32_t word_block,
                                       ThreadScratch& s) {
  const double beta = config_.beta;
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Shared pre-stage column table from the arena (immutable this stage).
    const FlatCounts counts = col_counts_.view(seg.item);
    AcceptSegment(s, counts, &ix.positions[seg.begin], seg.end - seg.begin,
                  nullptr, beta, grid_.base_word, seg.item,
                  /*final_topics=*/nullptr);
  }
}

void WarpLdaSampler::RunFusedWordPart(uint32_t doc_block, uint32_t word_block,
                                      ThreadScratch& s) {
  // [wa, wp] span (cols_ok): each segment is a whole column, so this block
  // alone computes the column's post-acceptance counts — the whole-column
  // body builds the alias table in place, skipping both the shared arena
  // and a barrier. z stays staged: ApplyStagedMoves (and a dist peer's
  // ApplyBlockDelta) publish the moves at the barrier.
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    SampleColumnItemRange(s, seg.item, seg.item + 1, grid_.base_word);
  }
}

void WarpLdaSampler::RunWordProposePart(uint32_t doc_block,
                                        uint32_t word_block,
                                        ThreadScratch& s) {
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Post-acceptance alias table, built once per column at the span entry.
    DrawWordProposalsForSegment(
        s, &ix.positions[seg.begin], seg.end - seg.begin,
        col_alias_[seg.item],
        static_cast<uint32_t>(matrix_.col_data(seg.item).size()),
        grid_.base_word);
  }
}

void WarpLdaSampler::RunDocAcceptPart(uint32_t doc_block, uint32_t word_block,
                                      ThreadScratch& s, bool fused_propose) {
  const std::vector<double>* alpha_vec =
      config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
  const BlockIndex& ix =
      grid_.doc_ix[static_cast<size_t>(doc_block) *
                       grid_.plan.num_word_blocks +
                   word_block];
  for (const BlockSegment& seg : ix.segments) {
    if (grid_.rows_ok) {
      // The segment is the whole row in row order: the whole-row body
      // streams c_d and, in a [da, dp] span, positions the proposals into
      // the row's post-acceptance topics before the barrier publishes them.
      SampleRowItemRange(s, seg.item, seg.item + 1, grid_.base_doc,
                         fused_propose);
      continue;
    }
    AcceptSegment(s, row_counts_.view(seg.item), &ix.positions[seg.begin],
                  seg.end - seg.begin, alpha_vec, config_.alpha,
                  grid_.base_doc, seg.item, /*final_topics=*/nullptr);
  }
}

void WarpLdaSampler::RunDocProposePart(uint32_t doc_block,
                                       uint32_t word_block,
                                       ThreadScratch& s) {
  const BlockIndex& ix =
      grid_.doc_ix[static_cast<size_t>(doc_block) *
                       grid_.plan.num_word_blocks +
                   word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Positioning reads the whole row's post-barrier topics; this block
    // draws only for its own tokens.
    const auto row = matrix_.row(seg.item);
    DrawDocProposalsForSegment(s, &ix.positions[seg.begin],
                               seg.end - seg.begin, row, row.size(),
                               grid_.base_doc);
  }
}

void WarpLdaSampler::ApplyStagedMoves(bool patch_col_counts) {
  // O(moved tokens), not O(all tokens): each stage's accepted moves are the
  // only z writes. Values are schedule-independent — every position moves at
  // most once per stage, and the arena patches commute — so any worker
  // interleaving folds to the same state.
  for (auto& s : scratch_) {
    for (const StagedMove& mv : s.staged_moves) {
      matrix_.entry_data(mv.pos) = mv.to;
      if (patch_col_counts) {
        FlatCounts counts = col_counts_.view(mv.item);
        counts.Dec(mv.from);
        counts.Inc(mv.to);
      }
    }
    s.staged_moves.clear();
  }
  FoldCkDeltas();
}

void WarpLdaSampler::EndStage() {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: EndStage() without BeginSweep()");
  }
  if (grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: EndStage() after all stages completed");
  }
  size_t missing = 0;
  for (char ran : grid_.block_ran) missing += ran ? 0 : 1;
  if (missing > 0) {
    throw std::logic_error(
        "WarpLdaSampler: EndStage() in " + std::string(ToString(grid_.stage)) +
        " stage with " + std::to_string(missing) + " of " +
        std::to_string(grid_.block_ran.size()) + " blocks not run");
  }
  const SweepStage begin = grid_.stage;
  const int len = SpanLength(begin);
  // Every span but [dp] holds an accept stage ([wp] always carries da).
  if (begin != SweepStage::kDocPropose) {
    // Patch the shared column tables in place only when the next span's
    // alias builds will read them (an unfused word-accept feeding
    // word-propose); everywhere else the moves only touch z.
    ApplyStagedMoves(
        /*patch_col_counts=*/begin == SweepStage::kWordAccept && len == 1);
  }
  grid_.stage = static_cast<SweepStage>(static_cast<int>(begin) + len);
  std::fill(grid_.block_ran.begin(), grid_.block_ran.end(), 0);
  if (grid_.stage != SweepStage::kDone) EnterSpan(grid_.stage);
  FlushScratchMetrics();  // workers are quiescent at the barrier
}

void WarpLdaSampler::AbortSweep() {
  if (!grid_.open) return;
  // Discard the aborted stage's staged moves and unfolded deltas; the live
  // state is whatever the last completed barrier applied, which keeps
  // matrix_ and ck_live_ consistent with each other. Pending proposals may
  // be stale — callers recover by running a fresh full sweep.
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
    s.staged_moves.clear();
  }
  grid_.stage = SweepStage::kDone;
  grid_.open = false;
}

void WarpLdaSampler::EndSweep() {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: EndSweep() without BeginSweep()");
  }
  if (grid_.stage != SweepStage::kDone) {
    throw std::logic_error(
        std::string("WarpLdaSampler: EndSweep() while still in ") +
        ToString(grid_.stage) + " stage");
  }
  grid_.open = false;
}

bool WarpLdaSampler::CaptureSweepState(SweepCheckpoint* out) const {
  if (corpus_ == nullptr) return false;
  if (grid_.open) {
    // Only quiescent points are capturable: at a barrier every worker's
    // staged moves are applied and every ck-delta partition is folded (and
    // zeroed), so the live arrays below are the *whole* state. Mid-stage
    // they are not, and a checkpoint here would silently drop work.
    for (char ran : grid_.block_ran) {
      if (ran) return false;
    }
  }
  out->config = config_;
  // The sampler treats mh_steps == 0 as 1 everywhere; normalize so the
  // checkpoint's proposal count is self-consistent under validation.
  out->config.mh_steps = std::max(1u, config_.mh_steps);
  // An open sweep whose stages all completed (EndSweep still pending) is
  // state-identical to "between sweeps": everything is applied.
  const bool mid_sweep = grid_.open && grid_.stage != SweepStage::kDone;
  out->next_stage = mid_sweep ? grid_.stage : SweepStage::kWordAccept;
  out->plan = mid_sweep ? grid_.plan : SweepPlan::Trivial();
  out->phase_epoch = phase_epoch_;
  out->base_word = grid_.base_word;
  out->base_doc = grid_.base_doc;
  out->ck_fixed = ck_fixed_;
  out->assignments.resize(matrix_.num_entries());
  for (uint64_t e = 0; e < matrix_.num_entries(); ++e) {
    out->assignments[e] = matrix_.entry_data(e);  // CSC entry order
  }
  out->proposals = proposals_;
  return true;
}

bool WarpLdaSampler::RestoreSweepState(const SweepCheckpoint& state,
                                       std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "WarpLdaSampler: " + message;
    return false;
  };
  if (corpus_ == nullptr) return fail("Init() must precede restore");
  if (grid_.open) return fail("restore during an active grid sweep");
  // Identity parameters must match the Init() config exactly — they shape
  // the RNG streams and the proposal layout, so a mismatch could not resume
  // the same trajectory. Priors are taken *from* the checkpoint (they drift
  // under hyper-parameter optimization).
  if (state.config.num_topics != config_.num_topics) {
    return fail("checkpoint has " + std::to_string(state.config.num_topics) +
                " topics, sampler has " + std::to_string(config_.num_topics));
  }
  if (state.config.mh_steps != std::max(1u, config_.mh_steps)) {
    return fail("checkpoint mh_steps " +
                std::to_string(state.config.mh_steps) +
                " does not match the sampler's");
  }
  if (state.config.seed != config_.seed) {
    return fail("checkpoint seed does not match the sampler's");
  }
  if (state.config.alpha_vector != config_.alpha_vector) {
    return fail("checkpoint asymmetric-prior vector does not match");
  }
  const uint64_t n = matrix_.num_entries();
  const uint64_t m = std::max(1u, config_.mh_steps);
  if (state.assignments.size() != n) {
    return fail("checkpoint token count " +
                std::to_string(state.assignments.size()) +
                " does not match the corpus (" + std::to_string(n) + ")");
  }
  if (state.proposals.size() != n * m) {
    return fail("checkpoint proposal count does not match");
  }
  if (state.ck_fixed.size() != config_.num_topics) {
    return fail("checkpoint ck snapshot size does not match");
  }
  for (TopicId z : state.assignments) {
    if (z >= config_.num_topics) return fail("assignment out of range");
  }
  for (TopicId z : state.proposals) {
    if (z >= config_.num_topics) return fail("proposal out of range");
  }
  const bool mid_sweep = state.next_stage != SweepStage::kWordAccept;
  if (mid_sweep) {
    std::string plan_error;
    if (!state.plan.Validate(corpus_->num_docs(), corpus_->num_words(),
                             &plan_error)) {
      return fail("checkpoint sweep plan does not fit the corpus: " +
                  plan_error);
    }
    if (!local_blocks_.empty() &&
        local_blocks_.size() != static_cast<size_t>(
                                    state.plan.num_doc_blocks) *
                                    state.plan.num_word_blocks) {
      return fail("SetLocalBlocks mask sized for a different plan");
    }
  }

  // Vector-aware prior refresh (SetPriors would overwrite the asymmetric ᾱ
  // with the symmetric product).
  config_.alpha = state.config.alpha;
  config_.beta = state.config.beta;
  alpha_bar_ = config_.alpha_bar();
  beta_bar_ = config_.beta * corpus_->num_words();
  std::fill(ck_live_.begin(), ck_live_.end(), 0);
  for (uint64_t e = 0; e < n; ++e) {
    matrix_.entry_data(e) = state.assignments[e];
    ++ck_live_[state.assignments[e]];
  }
  proposals_ = state.proposals;
  ck_fixed_ = state.ck_fixed;
  phase_epoch_ = state.phase_epoch;
  grid_.base_word = state.base_word;
  grid_.base_doc = state.base_doc;
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
    s.staged_moves.clear();
  }
  if (!mid_sweep) {
    // Between sweeps: proposals are the pending doc proposals the next word
    // phase consumes; nothing else to reopen.
    grid_.stage = SweepStage::kDone;
    grid_.open = false;
    return true;
  }
  // Reopen the sweep at the checkpointed barrier: rebuild the plan indices
  // and the span state EnterSpan would have prepared there. The snapshot
  // refresh inside EnterSpan is a no-op on this path — at an accept span's
  // entry barrier the checkpointed ck_fixed equals the fold state ck_live
  // was just rebuilt to — and the arenas are rebuilt from the restored z,
  // which is exactly the z the capturing run's arenas reflected.
  BuildGridIndices(state.plan);
  grid_.block_ran.assign(
      static_cast<size_t>(state.plan.num_doc_blocks) *
          state.plan.num_word_blocks,
      0);
  grid_.col_filled = false;
  grid_.stage = state.next_stage;
  grid_.open = true;
  if (state.next_stage != SweepStage::kDocPropose) {
    EnterSpan(state.next_stage);
  }
  return true;
}

// --------------------------------------------------------------------------
// Distributed execution: block deltas. Within a stage, a block's entire
// externally visible effect is (staged moves, own tokens' proposal slots) —
// z is untouched until the barrier and every other write lands in
// per-worker scratch. Capturing those two pieces and replaying them in a
// peer process that holds the same pre-stage state makes the peer's
// EndStage() fold bit-identical to having run the block locally: staged
// moves land in scratch (with their ck-delta net effect, intermediates of
// an MH chain cancel), and proposals scatter into the very slots the block
// would have written. Proposal order is the plan-derived segment position
// order, which every process computes identically from (plan, corpus).

bool WarpLdaSampler::SpanWritesProposals(SweepStage begin,
                                         bool* word_axis) const {
  switch (begin) {
    case SweepStage::kWordAccept:
      *word_axis = true;
      return SpanLength(begin) == 2;  // fused [wa, wp] draws word proposals
    case SweepStage::kWordPropose:
      // Word proposals always; a fused [wp, da] span's doc-accept half only
      // stages moves, so the axis stays word.
      *word_axis = true;
      return true;
    case SweepStage::kDocAccept:
      *word_axis = false;
      return SpanLength(begin) == 2;  // fused [da, dp] draws doc proposals
    case SweepStage::kDocPropose:
      *word_axis = false;
      return true;
    default:
      *word_axis = false;
      return false;
  }
}

std::vector<char> WarpLdaSampler::LocalItemFilter(bool word_axis) const {
  if (local_blocks_.empty()) return {};
  const auto& indices = word_axis ? grid_.word_ix : grid_.doc_ix;
  std::vector<char> needed(
      word_axis ? corpus_->num_words() : corpus_->num_docs(), 0);
  for (size_t b = 0; b < indices.size() && b < local_blocks_.size(); ++b) {
    if (!local_blocks_[b]) continue;
    for (const BlockSegment& seg : indices[b].segments) {
      needed[seg.item] = 1;
    }
  }
  return needed;
}

void WarpLdaSampler::SetLocalBlocks(const std::vector<char>& owned) {
  local_blocks_ = owned;
}

bool WarpLdaSampler::RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                                      uint32_t worker, GridBlockDelta* out) {
  if (!grid_.open || grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: RunBlockCaptured() outside an active stage");
  }
  if (worker >= scratch_.size()) {
    throw std::invalid_argument(
        "WarpLdaSampler: worker id out of range; ReserveWorkers() first");
  }
  const SweepStage begin = grid_.stage;
  ThreadScratch& s = scratch_[worker];
  const size_t moves_before = s.staged_moves.size();
  RunBlock(doc_block, word_block, worker);
  out->stage = begin;
  out->doc_block = doc_block;
  out->word_block = word_block;
  out->moves.clear();
  out->moves.reserve(s.staged_moves.size() - moves_before);
  for (size_t i = moves_before; i < s.staged_moves.size(); ++i) {
    const StagedMove& mv = s.staged_moves[i];
    out->moves.push_back({mv.pos, mv.item, mv.from, mv.to});
  }
  out->proposals.clear();
  bool word_axis = false;
  if (SpanWritesProposals(begin, &word_axis)) {
    const BlockIndex& ix =
        (word_axis ? grid_.word_ix : grid_.doc_ix)
            [static_cast<size_t>(doc_block) * grid_.plan.num_word_blocks +
             word_block];
    const uint32_t m = std::max(1u, config_.mh_steps);
    out->proposals.reserve(ix.positions.size() * m);
    for (uint64_t pos : ix.positions) {
      for (uint32_t j = 0; j < m; ++j) {
        out->proposals.push_back(proposals_[pos * m + j]);
      }
    }
  }
  return true;
}

bool WarpLdaSampler::ApplyBlockDelta(const GridBlockDelta& delta,
                                     std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "WarpLdaSampler: " + message;
    return false;
  };
  if (!grid_.open || grid_.stage == SweepStage::kDone) {
    return fail("ApplyBlockDelta() outside an active stage");
  }
  if (delta.stage != grid_.stage) {
    return fail(std::string("delta captured in ") + ToString(delta.stage) +
                " applied in " + ToString(grid_.stage) + " stage");
  }
  if (delta.doc_block >= grid_.plan.num_doc_blocks ||
      delta.word_block >= grid_.plan.num_word_blocks) {
    return fail("delta block index out of range");
  }
  char& ran =
      grid_.block_ran[static_cast<size_t>(delta.doc_block) *
                          grid_.plan.num_word_blocks +
                      delta.word_block];
  // Duplicate-frame idempotence: a redelivered delta for a block this stage
  // already ran (locally or injected) is acknowledged without reapplying —
  // applying twice would double its moves and ck updates.
  if (ran) return true;

  // Validate the whole delta before mutating anything, so a malformed frame
  // leaves the sampler untouched.
  const uint32_t k_topics = config_.num_topics;
  const uint64_t num_entries = matrix_.num_entries();
  // Moves carry the item AcceptSegment tagged them with: the column for the
  // word-accept stage (the barrier may patch the column arena through it),
  // the row for spans whose accept half runs on the doc axis.
  const bool word_items = delta.stage == SweepStage::kWordAccept;
  const uint64_t item_bound =
      word_items ? corpus_->num_words() : corpus_->num_docs();
  const bool stages_moves = delta.stage == SweepStage::kWordAccept ||
                            delta.stage == SweepStage::kWordPropose ||
                            delta.stage == SweepStage::kDocAccept;
  if (!stages_moves && !delta.moves.empty()) {
    return fail("delta stages moves in a pure propose span");
  }
  for (const GridBlockDelta::Move& mv : delta.moves) {
    if (mv.pos >= num_entries) return fail("delta move position out of range");
    if (mv.from >= k_topics || mv.to >= k_topics) {
      return fail("delta move topic out of range");
    }
    if (mv.item >= item_bound) return fail("delta move item out of range");
    // z is stable for the whole span, so `from` must match the current
    // assignment — anything else means the peer ran from different state.
    if (matrix_.entry_data(mv.pos) != mv.from) {
      return fail("delta move disagrees with the current assignment");
    }
  }
  bool word_axis = false;
  const bool has_proposals = SpanWritesProposals(delta.stage, &word_axis);
  const BlockIndex& ix =
      (word_axis ? grid_.word_ix : grid_.doc_ix)
          [static_cast<size_t>(delta.doc_block) * grid_.plan.num_word_blocks +
           delta.word_block];
  const uint32_t m = std::max(1u, config_.mh_steps);
  const size_t expected_proposals =
      has_proposals ? ix.positions.size() * static_cast<size_t>(m) : 0;
  if (delta.proposals.size() != expected_proposals) {
    return fail("delta proposal count " +
                std::to_string(delta.proposals.size()) + " (expected " +
                std::to_string(expected_proposals) + ")");
  }
  for (uint32_t p : delta.proposals) {
    if (p >= k_topics) return fail("delta proposal topic out of range");
  }

  // Injected work lands in worker 0's scratch — the same commutative fold
  // EndStage() applies to local work (scratch_[0] always exists: Init sizes
  // the pool to at least one).
  ThreadScratch& s = scratch_[0];
  for (const GridBlockDelta::Move& mv : delta.moves) {
    s.staged_moves.push_back({mv.pos, mv.item, mv.from, mv.to});
    --s.ck_delta[mv.from];
    ++s.ck_delta[mv.to];
  }
  if (has_proposals) {
    size_t i = 0;
    for (uint64_t pos : ix.positions) {
      for (uint32_t j = 0; j < m; ++j) {
        proposals_[pos * m + j] = delta.proposals[i++];
      }
    }
  }
  ran = 1;
  return true;
}

}  // namespace warplda
