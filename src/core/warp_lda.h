#ifndef WARPLDA_CORE_WARP_LDA_H_
#define WARPLDA_CORE_WARP_LDA_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "core/count_arena.h"
#include "core/simd_kernels.h"
#include "core/sparse_matrix.h"
#include "core/sweep_plan.h"
#include "eval/topic_model.h"
#include "util/alias_table.h"
#include "util/contracts.h"
#include "util/hash_count.h"

namespace warplda {

class ParallelExecutor;

/// Runtime options for WarpLDA beyond the shared LdaConfig.
struct WarpLdaOptions {
  /// Threads Iterate(), Init() and SetAssignments() split their column and
  /// row passes across (§5.3.1), on a pool the sampler owns. Tracing
  /// requires 1.
  /// Sampling results are independent of the thread count: every token owns
  /// its own RNG stream, so parallel runs are bit-identical to serial runs.
  uint32_t num_threads = 1;
  /// Routes the batched kernels through their scalar reference paths even
  /// when the CPU supports the vector ones. Results are bit-identical either
  /// way (the test matrix proves it); this exists to run that proof and to
  /// measure the SIMD contribution in isolation.
  bool force_scalar_kernels = false;
};

/// WarpLDA (paper §4): Monte-Carlo EM training of LDA with O(1) per-token
/// sampling and O(K)-sized randomly accessed memory per document/word.
///
/// Per-token state is the paper's y_dn = (z_dn, z⁽¹⁾…z⁽ᴹ⁾): the current
/// assignment plus M pending topic proposals, stored in a SparseMatrix in
/// CSC (word-major) order with row pointers for the document sweep (§5.2).
///
/// Each Iterate() runs the compressed two-pass schedule of §4.4:
///  * word pass, column by column: build c_w on the fly, accept the pending
///    *doc* proposals with π = min{1, (C_wt+β)(C_s+β̄)/((C_ws+β)(C_t+β̄))},
///    then draw M fresh *word* proposals from an alias table over the
///    updated q_word ∝ C_wk+β;
///  * doc pass, row by row: build c_d on the fly, accept the pending *word*
///    proposals with π = min{1, (C_dt+α)(C_s+β̄)/((C_ds+α)(C_t+β̄))}, then
///    draw M fresh *doc* proposals by random positioning into z_d
///    (q_doc ∝ C_dk+α).
///
/// Counts are delayed (MCEM, §4.2): acceptance uses the per-phase snapshot
/// of the global counts c_k and the per-scope snapshot of c_d/c_w, which is
/// what decouples the two count matrices and shrinks the random-access
/// footprint to one cache-resident vector (§3.3, Table 2's last row).
///
/// Iterate() is the trivial 1×1 plan's two whole-item spans, [word-accept,
/// word-propose] and [doc-accept, doc-propose]. Each span runs as
/// cost-balanced item-range tasks on a pool the sampler owns (created on
/// the first call that needs more than one thread, §5.3.1); every task owns
/// whole columns or rows, so it writes their z in place.
///
/// Grid execution (GridSampler): the sweep also runs block-by-block over a
/// SweepPlan's (doc-partition × word-partition) grid — the multi-machine
/// schedule, where worker i owns doc partition i and word slices rotate.
/// Every (phase, token) pair draws from its own RNG stream derived from the
/// seed, and delayed counts make tokens within a stage independent, so any
/// block order — and Iterate() itself — produces identical assignments.
/// Distinct blocks of a stage may run concurrently (e.g. under
/// ParallelExecutor): each RunBlock call works out of the calling worker's
/// ThreadScratch — including its partition of the c_k deltas and its
/// deferred move list, folded/applied once at the EndStage barrier — and
/// writes only its own tokens' slots, so block bodies share no mutable
/// memory.
///
/// Both paths run the same per-item bodies (SampleColumnItemRange,
/// SampleRowItemRange) and the same batched MH accept chain, a gather →
/// vectorized-ratio → masked-select batch (core/simd_kernels.h). The
/// reference semantics live outside this class: tests/reference_sampler.h
/// is an independent serial, scalar sampler, and the test matrix holds
/// Iterate() and every grid plan equal to it.
class WarpLdaSampler : public Sampler, public GridSampler {
 public:
  explicit WarpLdaSampler(const WarpLdaOptions& options = {});
  ~WarpLdaSampler() override;
  /// Movable, not copyable: the sampler owns its thread pool.
  WarpLdaSampler(WarpLdaSampler&&);
  WarpLdaSampler& operator=(WarpLdaSampler&&);

  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override;
  void SetAssignments(const std::vector<TopicId>& assignments) override;
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "WarpLDA"; }

  const WarpLdaOptions& options() const { return options_; }

  /// GridSampler: block-wise sweep execution (see core/sweep_plan.h for the
  /// protocol). Produces the same samples as Iterate() for any plan, any
  /// block schedule, and any worker count. Adjacent stages fuse into one
  /// span wherever the plan allows it (see SpanLength): sweep_stage() names
  /// the *first* stage of the current span, RunBlock executes every stage
  /// of the span for that block, and EndStage() advances past the whole
  /// span.
  void BeginSweep(const SweepPlan& plan) override;
  void RunBlock(uint32_t doc_block, uint32_t word_block,
                uint32_t worker = 0) override;
  void EndStage() override;
  void EndSweep() override;
  void AbortSweep() override;
  SweepStage sweep_stage() const override { return grid_.stage; }
  /// Grows the per-worker scratch (counts, alias, ck-delta partition) so
  /// RunBlock may be called with worker ids in [0, num_workers). Requires
  /// Init(); legal between sweeps and at a stage barrier of an open sweep
  /// (the restore path grows the pool before finishing a restored sweep),
  /// but never while a stage has blocks in flight.
  void ReserveWorkers(uint32_t num_workers) override;

  /// Durability hooks (core/checkpoint.h): capture is legal between sweeps
  /// and at stage barriers (deltas folded, staged moves applied — the
  /// per-worker state is empty, so the checkpoint is just assignments,
  /// proposals, c_k snapshot, and RNG stream bases); restore reproduces that
  /// exact state in a fresh process, mid-sweep when the checkpoint was. Any
  /// thread count may finish a restored sweep bit-identically to the
  /// uninterrupted run.
  bool CaptureSweepState(SweepCheckpoint* out) const override;
  bool RestoreSweepState(const SweepCheckpoint& state,
                         std::string* error) override;

  /// Distributed execution hooks (see core/sweep_plan.h). A block's effect
  /// is its staged moves plus the proposal slots its span wrote, gathered /
  /// scattered in the plan-derived segment position order — canonical
  /// because every process builds identical indices from the same plan and
  /// corpus. Injected deltas land in worker 0's scratch (staged moves +
  /// ck-delta) and the block's own proposal slots, so EndStage() applies
  /// them exactly as local work; a full set of deltas makes this sampler's
  /// state evolve bit-identically to the process that ran the blocks.
  bool RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                        uint32_t worker, GridBlockDelta* out) override;
  bool ApplyBlockDelta(const GridBlockDelta& delta,
                       std::string* error) override;
  /// Restricts per-item cache builds (column alias tables, row count
  /// tables) to the items owned blocks actually read. The column count
  /// arena is always built in full: the word-accept barrier patches it with
  /// *every* block's moves, local and injected alike.
  void SetLocalBlocks(const std::vector<char>& owned) override;

  /// Live global topic counts c_k (size K). Deltas are folded in at phase /
  /// stage barriers, so between Iterate() calls (or outside an open sweep)
  /// this is exactly the histogram of Assignments().
  const std::vector<int64_t>& topic_counts() const { return ck_live_; }

  /// Snapshot-export hook for serving: aggregates the current assignments
  /// into a TopicModel ready for serve::ModelStore::Publish(). Safe to call
  /// between Iterate() calls while a server keeps answering from earlier
  /// snapshots (train-while-serve). Init() must have been called.
  /// Same name and contract as StreamingWarpLda::ExportSharedModel().
  std::shared_ptr<const TopicModel> ExportSharedModel() const;

  /// As above, and additionally reports which words' sparse rows differ
  /// from the model returned by the previous call to this overload (every
  /// word on the first call) — exactly the changed-word set
  /// serve::ModelStore::PublishDelta needs, so the trainer→server publish
  /// loop can republish incrementally. Tracks the last export internally;
  /// `changed_words` may be null to only advance that tracking.
  std::shared_ptr<const TopicModel> ExportSharedModel(
      std::vector<WordId>* changed_words);

 private:
  /// A deferred write from an accept stage: token at CSC position `pos`
  /// moves from topic `from` to `to`. `item` is the token's column (word
  /// stages) so the barrier can patch the column count arena; unused by doc
  /// stages. Replaces the old full-length staged-topics array: the barrier
  /// applies O(moved tokens) instead of copying every token.
  struct StagedMove {
    uint64_t pos;
    uint32_t item;
    TopicId from;
    TopicId to;
  };

  struct WARP_WORKER_LOCAL ThreadScratch {
    HashCount counts;
    AliasTable alias;
    /// This worker's partition of the c_k updates; folded into ck_live_ at
    /// Iterate()'s pass ends and at grid stage barriers.
    std::vector<int64_t> ck_delta;
    std::vector<std::pair<uint32_t, double>> alias_entries;
    /// Deferred z writes of the current grid stage; applied (and count-arena
    /// patched) at the EndStage barrier. Iterate()'s SampleOwnedItemRange
    /// holds one item's moves here at a time and writes them in place.
    std::vector<StagedMove> staged_moves;
    /// CSC positions of the column SampleColumnItemRange is working on.
    std::vector<uint64_t> positions;
    /// Batch-derived per-token RNG stream states for a propose segment.
    std::vector<simd::RngState> rng_states;
    /// Whole-row doc-accept+propose: the row's post-acceptance topics, so
    /// the propose half positions into post-accept values whether or not z
    /// has been written yet.
    std::vector<TopicId> local_row;
    /// Accept-batch SoA scratch (one chunk of tokens; see AcceptSegment):
    /// per-proposal a=count+prior / b=ck_fixed+beta_bar gathers, the current
    /// topic's running a/b, computed ratios and accept masks, and the
    /// lazily seeded per-token chain RNGs.
    std::vector<double> bat_ta, bat_tb, bat_ca, bat_cb, bat_ratio;
    std::vector<uint32_t> bat_topic, bat_cur;
    std::vector<uint8_t> bat_ge1, bat_seeded;
    std::vector<Rng> bat_rng;
    /// Plain (non-atomic) obs accumulators, bumped on the hot path and
    /// drained into the global registry by FlushScratchMetrics() at phase /
    /// stage barriers — never an atomic op per token.
    uint64_t obs_tokens = 0;       ///< AcceptChain calls (tokens visited)
    uint64_t obs_proposals = 0;    ///< non-self MH proposals considered
    uint64_t obs_accepts = 0;      ///< proposals accepted (topic moved)
    uint64_t obs_alias_builds = 0; ///< alias tables (re)built
  };

  /// Per-(block × stage-axis) work list, precomputed by BuildGridIndices:
  /// the CSC positions a block owns, grouped into per-column (word stages)
  /// or per-row (doc stages) segments. Kills the old per-block rescan of
  /// every full column/row with a per-entry block filter — the dominant
  /// redundancy of the grid path (a P×P plan rescanned each column P times
  /// per stage).
  struct BlockSegment {
    uint32_t item;    // column (word axis) or row (doc axis)
    uint32_t begin;   // [begin, end) into BlockIndex::positions
    uint32_t end;
  };
  struct BlockIndex {
    std::vector<BlockSegment> segments;
    std::vector<uint64_t> positions;  // CSC entry positions
  };

  /// State of an open grid sweep (BeginSweep .. EndSweep). Workers read it
  /// freely inside a stage; every mutation happens on the driver thread at
  /// sweep/stage boundaries — the WARP_* contracts below make warplint
  /// enforce exactly that split.
  struct GridState {
    WARP_IMMUTABLE_AFTER(BuildGridIndices) SweepPlan plan;
    WARP_BARRIER_ONLY SweepStage stage = SweepStage::kDone;
    WARP_BARRIER_ONLY bool open = false;
    /// True when the plan-derived indices below match `plan`; BeginSweep
    /// skips rebuilding them for repeated sweeps of the same plan.
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool indices_built = false;
    /// Fusion legality, per plan: cols_ok — every column's tokens lie in a
    /// single doc block (word-accept may fuse with word-propose); rows_ok —
    /// every row's tokens lie in a single word block (doc-accept may fuse
    /// with doc-propose).
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool cols_ok = false;
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool rows_ok = false;
    /// True once BuildColArena filled the column tables for this sweep (the
    /// word-accept barrier then patches them in place instead of rebuilding).
    WARP_BARRIER_ONLY bool col_filled = false;
    // word/doc-phase RNG stream bases (see StreamBase).
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_word = 0;
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_doc = 0;
    // (doc×word) block -> column / row segments.
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<BlockIndex> word_ix;
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<BlockIndex> doc_ix;
    /// Per (doc, word) block: ran in the current span. Deliberately
    /// unannotated — RunBlock marks its own block done through a reference,
    /// a per-block-disjoint write the line-level contract model cannot
    /// distinguish from a race.
    std::vector<char> block_ran;
  };

  /// RNG stream tags: each (epoch, tag, token) triple names one stream.
  static constexpr uint32_t kTagAccept = 0x51;
  static constexpr uint32_t kTagPropose = 0xA3;

  /// Tokens per accept-batch chunk: large enough to expose memory-level
  /// parallelism in the gather pass and fill the vector lanes, small enough
  /// that the SoA scratch stays L1-resident.
  static constexpr uint32_t kAcceptChunk = 256;

  /// Item ranges per pool thread for barrier builds and Iterate() passes:
  /// enough that dynamic claiming evens out per-range cost skew, few enough
  /// that the per-task handshake stays negligible.
  static constexpr uint32_t kItemChunksPerThread = 16;

  /// Per-phase base of the token RNG streams. Hashed once when a phase (or
  /// grid sweep) opens, not once per token.
  uint64_t StreamBase(uint64_t epoch) const {
    return SplitMix64(config_.seed ^ (epoch * 0x9E3779B97F4A7C15ULL));
  }

  /// Deterministic per-token RNG stream. Grid blocks may run in any order
  /// (or on any thread), so each token's draws come from its own stream,
  /// named by the (stream_base, tag, token) triple. The batched equivalent
  /// is simd::DeriveStreamStates (bit-identical by construction).
  static Rng StreamRng(uint64_t stream_base, uint32_t tag, uint64_t token) {
    return Rng(
        SplitMix64(stream_base ^ (static_cast<uint64_t>(tag) << 56) ^ token));
  }

  /// Folds every worker's ck-delta partition into ck_live_ and zeroes it —
  /// the once-per-barrier reduction that replaces a shared (contended)
  /// delta vector.
  void FoldCkDeltas();

  /// Builds `counts` from the topic values in `z` (capacity min(K, 2|z|)).
  void BuildCounts(HashCount& counts, std::span<const TopicId> z) const;
  void BuildCounts(HashCount& counts,
                   SparseMatrix<TopicId>::RowView row) const;

  /// Runs one token's MH acceptance chain against the delayed snapshots
  /// (Eq. 7) and returns the final topic, reading the delayed counts from
  /// `counts` and folding topic moves into `s.ck_delta`. The word phase
  /// passes (prior_vec=nullptr, prior=β); the doc phase passes the α_k
  /// vector (or nullptr) and the symmetric α. The RNG stream is seeded
  /// lazily — chains whose proposals all equal the current topic, or always
  /// accept, draw nothing. AcceptSegment runs it token by token when a
  /// memory tracer is attached, and its batched path equals it bit for bit.
  template <typename Counts>
  TopicId AcceptChain(ThreadScratch& s, const Counts& counts, TopicId current,
                      const TopicId* props, uint32_t m,
                      const std::vector<double>* prior_vec, double prior,
                      uint64_t stream_base, uint64_t token);

  /// Batched MH acceptance over one segment's tokens: gathers each token's
  /// (count+prior, ck_fixed+beta_bar) operands into SoA chunks, computes
  /// the chain-step ratios with the vectorized kernel, then resolves
  /// accepts sequentially per token (preserving each token's lazy RNG
  /// stream consumption exactly). Appends a StagedMove per moved token
  /// (tagged `move_item`) and, when `final_topics` is non-null, writes every
  /// token's final topic there (the fused doc path's local row patch).
  /// Bit-identical to running AcceptChain per token; falls back to exactly
  /// that when a memory tracer is attached, for trace fidelity.
  template <typename Counts>
  void AcceptSegment(ThreadScratch& s, const Counts& counts,
                     const uint64_t* positions, uint32_t n,
                     const std::vector<double>* prior_vec, double prior,
                     uint64_t stream_base, uint32_t move_item,
                     TopicId* final_topics);

  /// Drains every worker's obs accumulators into the global metrics
  /// registry (when metrics are enabled; the accumulators are zeroed either
  /// way). Called at phase ends and stage barriers, where workers are
  /// quiescent.
  void FlushScratchMetrics();

  /// Loads the word-proposal alias table over q_word ∝ C_wk (the count
  /// branch of the mixture) from `counts`, which must hold the
  /// post-acceptance c_w. Entries are emitted in ascending-topic order, so
  /// the table depends only on the count *values* — not on how the hash
  /// table was filled — letting a whole-column body update its private
  /// counts incrementally (replaying the acceptance moves) while an unfused
  /// grid plan patches the shared column arena at the stage barrier,
  /// bit-identically.
  template <typename Counts>
  void BuildAliasInto(ThreadScratch& scratch, const Counts& counts,
                      AliasTable& alias);

  /// Draws M word proposals into `slot` from the count/β mixture using a
  /// pre-seeded stream RNG.
  void DrawWordProposalsInto(TopicId* slot, const AliasTable& alias, Rng& rng,
                             double count_prob);
  /// Draws M doc proposals into `slot` by random positioning into `values`
  /// (any indexable view of the row's topics), α branch as fallback (§4.3).
  template <typename Values>
  void DrawDocProposalsInto(TopicId* slot, const Values& values, uint32_t len,
                            Rng& rng, double position_prob);
  /// Draws M word proposals for each of the n tokens at `positions` (all of
  /// one column, whose length is `col_len`) from `alias`, deriving the
  /// tokens' streams in one batch.
  void DrawWordProposalsForSegment(ThreadScratch& s, const uint64_t* positions,
                                   uint32_t n, const AliasTable& alias,
                                   uint32_t col_len, uint64_t stream_base);
  /// Draws M doc proposals for each of the n tokens at `positions` (all of
  /// one row) by positioning into `values`, the row's len topics.
  template <typename Values>
  void DrawDocProposalsForSegment(ThreadScratch& s, const uint64_t* positions,
                                  uint32_t n, const Values& values,
                                  uint32_t len, uint64_t stream_base);
  /// Doc proposals for every token of rows [begin, end) from the current z:
  /// the pending proposals Init() and SetAssignments() leave for the next
  /// word pass.
  void DrawDocProposalsItemRange(ThreadScratch& s, uint32_t begin,
                                 uint32_t end, uint64_t stream_base);
  /// Redraws every row's pending doc proposals on the owned pool.
  void RedrawDocProposals();

  /// (Re)builds the plan-derived grid indices (per-block segment lists,
  /// fusion legality) unless they already match `plan`. Shared by BeginSweep
  /// and RestoreSweepState.
  void BuildGridIndices(const SweepPlan& plan);

  /// Length (1 or 2) of the fused stage span entered at `s`, under the
  /// current plan's legality bits.
  int SpanLength(SweepStage s) const;
  /// Whether the span entered at `begin` draws proposals, and on which axis
  /// (word_ix vs doc_ix position order) they are gathered / scattered.
  /// Shared by RunBlockCaptured and ApplyBlockDelta so the two sides agree.
  bool SpanWritesProposals(SweepStage begin, bool* word_axis) const;
  /// True when `item` (word for the word axis, doc otherwise) is read by a
  /// locally owned block, or when no SetLocalBlocks filter is active.
  /// Implements the filtered cache builds.
  std::vector<char> LocalItemFilter(bool word_axis) const;
  /// Barrier-side preparation for the span entered at `begin`: snapshot
  /// refreshes and count-arena/alias (re)builds its stages read.
  void EnterSpan(SweepStage begin);

  /// Shared count-table arenas (see count_arena.h). Geometry is sized once
  /// per corpus; contents are rebuilt per sweep (columns at BeginSweep,
  /// rows at the doc-accept span entry) and the column arena is patched
  /// in place with the word-accept moves at the barrier.
  void EnsureColArenaGeometry();
  void EnsureRowArenaGeometry();
  void BuildColArena();
  void BuildRowArena();
  /// Builds every column's word-proposal alias table from the (patched)
  /// column arena — once per column per sweep, replacing the old
  /// once-per-(block × column) rebuilds.
  void BuildColAliases();

  /// Grows scratch_ to `num_workers` entries (ReserveWorkers' body; also
  /// used by RunItemRanges for the pool it hands tasks to).
  void GrowScratch(uint32_t num_workers);
  /// The pool Iterate(), Init() and SetAssignments() run their item ranges
  /// on: created on the first call with num_threads > 1, so grid-only users
  /// and forked dist workers own no threads. nullptr at one thread.
  ParallelExecutor* OwnedPool();
  /// Runs fn(worker, begin, end) over contiguous ranges covering items
  /// [0, num_items): as kItemChunksPerThread tasks per thread on `pool`, as
  /// one inline range without one. `weight(i)` is a non-decreasing cost
  /// prefix (weight(num_items) = total cost); ranges carry equal cost
  /// shares. Driver-side only: never call it from a task body.
  template <typename Weight, typename Fn>
  void RunItemRanges(ParallelExecutor* pool, uint32_t num_items,
                     const Weight& weight, const Fn& fn);
  /// Cost prefix of the column builds over columns [0, w).
  uint64_t ColCostPrefix(uint32_t w) const;
  /// Barrier-task bodies of the builds above, one item range each. Tasks of
  /// one build run concurrently: each clears and fills only its own items'
  /// arena slots / col_alias_ entries and uses scratch_[worker] alone.
  void FillColArenaItemRange(uint32_t begin, uint32_t end);
  void FillRowArenaItemRange(const std::vector<char>& needed, uint32_t begin,
                             uint32_t end);
  void BuildColAliasItemRange(uint32_t worker, const std::vector<char>& needed,
                              uint32_t begin, uint32_t end);

  /// The whole-item bodies, shared by Iterate() and the grid spans whose
  /// segments are whole items. Each uses `s` alone and stages its accepted
  /// topics in s.staged_moves; z is never written here.
  ///
  /// SampleColumnItemRange: [word-accept, word-propose] over columns
  /// [begin, end) — c_w streamed through s.counts, the batched accept,
  /// the moves replayed into c_w, the alias table, the word proposals.
  /// SampleRowItemRange: doc-accept over rows [begin, end) with c_d
  /// streamed through s.counts, then (when `propose`) the doc proposals
  /// positioned into the row's post-accept topics.
  void SampleColumnItemRange(ThreadScratch& s, uint32_t begin, uint32_t end,
                             uint64_t stream_base);
  void SampleRowItemRange(ThreadScratch& s, uint32_t begin, uint32_t end,
                          uint64_t stream_base, bool propose);
  /// Iterate()'s task body: the whole-column (`word_axis`) or whole-row
  /// body above over items [begin, end), one item at a time, each item's
  /// staged moves written to z in place and dropped before the next — so
  /// staging never holds more than one item. Legal because the task owns
  /// every entry of its items and nothing else reads them before the
  /// pass-end barrier; grid blocks stage instead and never call it.
  void SampleOwnedItemRange(ThreadScratch& s, bool word_axis, uint32_t begin,
                            uint32_t end, uint64_t stream_base);

  /// Grid block bodies, one per (span pattern, axis). Concurrency-safe
  /// across distinct blocks: they read shared *immutable* span state, write
  /// only their own tokens' proposal slots, and defer z/count writes into
  /// scratch_[worker]'s move list and ck-delta partition.
  void RunWordAcceptPart(uint32_t doc_block, uint32_t word_block,
                         ThreadScratch& s);
  void RunFusedWordPart(uint32_t doc_block, uint32_t word_block,
                        ThreadScratch& s);
  void RunWordProposePart(uint32_t doc_block, uint32_t word_block,
                          ThreadScratch& s);
  void RunDocAcceptPart(uint32_t doc_block, uint32_t word_block,
                        ThreadScratch& s, bool fused_propose);
  void RunDocProposePart(uint32_t doc_block, uint32_t word_block,
                         ThreadScratch& s);
  /// Applies every worker's staged moves to z (and, when the next span's
  /// alias builds will read it, patches the column count arena), then folds
  /// the per-worker ck-delta partitions into ck_live_ (FoldCkDeltas).
  void ApplyStagedMoves(bool patch_col_counts);

  WarpLdaOptions options_;
  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  double alpha_bar_ = 0.0;
  double beta_bar_ = 0.0;

  /// Model returned by the last ExportSharedModel(changed_words) call; the
  /// diff base for incremental publishing.
  std::shared_ptr<const TopicModel> last_export_;

  /// z in CSC order. Shared-read during grid stages; mutations are staged in
  /// ThreadScratch::staged_moves and applied under the EndStage barrier —
  /// except in Iterate()'s task body, which owns every entry of its columns
  /// or rows and writes them in place.
  WARP_ITEM_OWNED(SampleOwnedItemRange)
  SparseMatrix<TopicId> matrix_;
  /// M proposals per token, CSC order. Deliberately unannotated: propose
  /// stages legitimately write their own tokens' slots concurrently (the
  /// slot ranges are disjoint by construction), which a per-member contract
  /// would mislabel as a race.
  std::vector<TopicId> proposals_;
  WARP_BARRIER_ONLY AliasTable prior_alias_;  // over α_k (asymmetric prior)
  /// c_k snapshot used in acceptance — frozen while any phase/span is open.
  WARP_IMMUTABLE_AFTER(Init, SetAssignments, Iterate, EnterSpan,
                       RestoreSweepState)
  std::vector<int64_t> ck_fixed_;
  /// Live c_k, maintained across phases by folding per-worker ck_delta
  /// partitions at barriers.
  WARP_BARRIER_ONLY std::vector<int64_t> ck_live_;
  WARP_WORKER_LOCAL std::vector<ThreadScratch> scratch_;
  WARP_BARRIER_ONLY CountArena col_counts_;  // per-column c_w (grid path)
  WARP_BARRIER_ONLY CountArena row_counts_;  // per-row c_d (grid path)
  WARP_BARRIER_ONLY std::vector<AliasTable> col_alias_;  // word proposals
  WARP_BARRIER_ONLY uint64_t phase_epoch_ = 0;  // RNG stream epoch
  GridState grid_;
  /// SetLocalBlocks ownership flags (num_blocks, row-major); empty = no
  /// filter, build every per-item cache.
  WARP_BARRIER_ONLY std::vector<char> local_blocks_;
  /// See OwnedPool(). Idle workers wait on the pool's condition variable.
  WARP_BARRIER_ONLY std::unique_ptr<ParallelExecutor> pool_;
};

}  // namespace warplda

#endif  // WARPLDA_CORE_WARP_LDA_H_
