#ifndef WARPLDA_DIST_PARTITIONER_H_
#define WARPLDA_DIST_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep_plan.h"
#include "corpus/corpus.h"

namespace warplda {

/// Load-balancing strategies for assigning weighted items (documents by
/// length, words by frequency) to P partitions — the Fig 4 study.
///
/// Word frequencies are Zipfian, so the naive strategies pay dearly: the
/// partition that draws the head words owns a disproportionate share of all
/// tokens (§5.3.2's load-balance concern, applied across machines).
enum class PartitionStrategy {
  /// Uniform random assignment (seeded): the baseline every parameter-server
  /// system gets by hashing ids.
  kStatic,
  /// Contiguous ranges split at equal prefix-sum targets — the same scheme
  /// WarpLdaSampler's item-range tasks use to balance threads. Keeps items
  /// in order (cheap range metadata) but granularity is limited to whole
  /// items.
  kDynamic,
  /// Greedy LPT: heaviest item first onto the least-loaded partition.
  /// Near-optimal until a single item outweighs total/P, which no
  /// assignment can fix (the inherent bound visible in Fig 4 at large P).
  kGreedy,
};

/// Strategy name ("Static" / "Dynamic" / "Greedy"); identifier-safe, used as
/// gtest parameter labels and bench column headers.
std::string ToString(PartitionStrategy strategy);

/// Assigns each weighted item to a partition in [0, num_partitions).
/// Deterministic for a given (strategy, seed); only kStatic consumes the
/// seed. Requires num_partitions >= 1.
std::vector<uint32_t> PartitionByTokens(const std::vector<uint64_t>& weights,
                                        uint32_t num_partitions,
                                        PartitionStrategy strategy,
                                        uint64_t seed = 0x5EEDULL);

/// Imbalance index: max partition load / mean partition load - 1, i.e. 0 for
/// a perfect split and P·share-1 when one partition holds everything.
/// The metric behind Fig 4.
double ImbalanceIndex(const std::vector<uint64_t>& weights,
                      const std::vector<uint32_t>& assignment,
                      uint32_t num_partitions);

/// Builds a token-balanced SweepPlan for grid execution: documents are
/// partitioned by length into `num_doc_blocks`, words by corpus frequency
/// into `num_word_blocks`, each with `strategy`.
SweepPlan MakeSweepPlan(const Corpus& corpus, uint32_t num_doc_blocks,
                        uint32_t num_word_blocks,
                        PartitionStrategy strategy = PartitionStrategy::kGreedy,
                        uint64_t seed = 0x5EEDULL);

/// Elastic recovery: redistributes the items owned by dead partitions across
/// the `survivors`, greedy-LPT style — each orphaned item (heaviest first)
/// goes to the currently least-loaded survivor, with the survivors' existing
/// loads seeding the heap so a repartition after a worker death stays
/// balanced instead of dogpiling one survivor. Items already owned by a
/// survivor keep their owner (their caches and in-flight state stay valid).
/// `survivors` must be non-empty and name partitions only; items owned by a
/// partition absent from `survivors` are the ones reassigned. Deterministic:
/// ties break by survivor order.
std::vector<uint32_t> ReassignToSurvivors(
    const std::vector<uint64_t>& weights,
    const std::vector<uint32_t>& assignment,
    const std::vector<uint32_t>& survivors);

}  // namespace warplda

#endif  // WARPLDA_DIST_PARTITIONER_H_
