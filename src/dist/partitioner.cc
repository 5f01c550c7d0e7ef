#include "dist/partitioner.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/rng.h"

namespace warplda {
namespace {

std::vector<uint32_t> PartitionStatic(const std::vector<uint64_t>& weights,
                                      uint32_t p, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> assignment(weights.size());
  for (auto& a : assignment) a = rng.NextInt(p);
  return assignment;
}

std::vector<uint32_t> PartitionDynamic(const std::vector<uint64_t>& weights,
                                       uint32_t p) {
  // Contiguous chunks cut at equal prefix-sum targets, as WarpLdaSampler
  // cuts its item-range tasks (at 16 per thread, not one): chunk t
  // starts at the first item whose preceding load reaches total·t/p.
  const uint32_t n = static_cast<uint32_t>(weights.size());
  std::vector<uint64_t> prefix(n + 1, 0);
  for (uint32_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + weights[i];
  const uint64_t total = prefix[n];
  std::vector<uint32_t> bounds(p + 1, n);
  bounds[0] = 0;
  uint32_t cursor = 0;
  for (uint32_t t = 1; t < p; ++t) {
    const uint64_t target = total * t / p;
    while (cursor < n && prefix[cursor] < target) ++cursor;
    bounds[t] = cursor;
  }
  std::vector<uint32_t> assignment(n, p - 1);
  for (uint32_t t = 0; t < p; ++t) {
    for (uint32_t i = bounds[t]; i < bounds[t + 1]; ++i) assignment[i] = t;
  }
  return assignment;
}

std::vector<uint32_t> PartitionGreedy(const std::vector<uint64_t>& weights,
                                      uint32_t p) {
  // LPT: items in decreasing weight order, each onto the currently
  // least-loaded partition (ties broken by partition id for determinism).
  const uint32_t n = static_cast<uint32_t>(weights.size());
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return weights[a] > weights[b];
  });
  using Load = std::pair<uint64_t, uint32_t>;  // (load, partition)
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t part = 0; part < p; ++part) heap.emplace(0, part);
  std::vector<uint32_t> assignment(n, 0);
  for (uint32_t item : order) {
    auto [load, part] = heap.top();
    heap.pop();
    assignment[item] = part;
    heap.emplace(load + weights[item], part);
  }
  return assignment;
}

}  // namespace

std::string ToString(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kStatic:
      return "Static";
    case PartitionStrategy::kDynamic:
      return "Dynamic";
    case PartitionStrategy::kGreedy:
      return "Greedy";
  }
  return "Unknown";
}

std::vector<uint32_t> PartitionByTokens(const std::vector<uint64_t>& weights,
                                        uint32_t num_partitions,
                                        PartitionStrategy strategy,
                                        uint64_t seed) {
  if (num_partitions <= 1 || weights.empty()) {
    return std::vector<uint32_t>(weights.size(), 0);
  }
  switch (strategy) {
    case PartitionStrategy::kStatic:
      return PartitionStatic(weights, num_partitions, seed);
    case PartitionStrategy::kDynamic:
      return PartitionDynamic(weights, num_partitions);
    case PartitionStrategy::kGreedy:
      return PartitionGreedy(weights, num_partitions);
  }
  return std::vector<uint32_t>(weights.size(), 0);
}

double ImbalanceIndex(const std::vector<uint64_t>& weights,
                      const std::vector<uint32_t>& assignment,
                      uint32_t num_partitions) {
  if (num_partitions == 0 || weights.empty()) return 0.0;
  std::vector<uint64_t> loads(num_partitions, 0);
  uint64_t total = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    loads[assignment[i]] += weights[i];
    total += weights[i];
  }
  if (total == 0) return 0.0;
  const uint64_t max_load = *std::max_element(loads.begin(), loads.end());
  const double mean = static_cast<double>(total) / num_partitions;
  return static_cast<double>(max_load) / mean - 1.0;
}

std::vector<uint32_t> ReassignToSurvivors(
    const std::vector<uint64_t>& weights,
    const std::vector<uint32_t>& assignment,
    const std::vector<uint32_t>& survivors) {
  std::vector<uint32_t> out = assignment;
  if (survivors.empty() || weights.empty()) return out;
  // Survivor membership + current loads (the LPT heap seed: repartitioning
  // onto already-loaded survivors must account for what they keep).
  const uint32_t max_part =
      1 + *std::max_element(survivors.begin(), survivors.end());
  std::vector<char> alive(max_part, 0);
  for (uint32_t s : survivors) alive[s] = 1;
  using Load = std::pair<uint64_t, uint32_t>;  // (load, survivor index)
  std::vector<uint64_t> loads(survivors.size(), 0);
  std::vector<uint32_t> orphans;
  for (size_t i = 0; i < weights.size() && i < assignment.size(); ++i) {
    const uint32_t owner = assignment[i];
    if (owner < max_part && alive[owner]) {
      for (size_t s = 0; s < survivors.size(); ++s) {
        if (survivors[s] == owner) {
          loads[s] += weights[i];
          break;
        }
      }
    } else {
      orphans.push_back(static_cast<uint32_t>(i));
    }
  }
  // Heaviest orphan first onto the least-loaded survivor; ties break by
  // survivor order (the heap key's second component), so the result is
  // deterministic and every process that runs this computes the same map.
  std::stable_sort(orphans.begin(), orphans.end(),
                   [&](uint32_t a, uint32_t b) {
                     return weights[a] > weights[b];
                   });
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t s = 0; s < survivors.size(); ++s) heap.emplace(loads[s], s);
  for (uint32_t item : orphans) {
    auto [load, s] = heap.top();
    heap.pop();
    out[item] = survivors[s];
    heap.emplace(load + weights[item], s);
  }
  return out;
}

SweepPlan MakeSweepPlan(const Corpus& corpus, uint32_t num_doc_blocks,
                        uint32_t num_word_blocks, PartitionStrategy strategy,
                        uint64_t seed) {
  SweepPlan plan;
  plan.num_doc_blocks = std::max(1u, num_doc_blocks);
  plan.num_word_blocks = std::max(1u, num_word_blocks);
  std::vector<uint64_t> doc_weights(corpus.num_docs());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    doc_weights[d] = corpus.doc_length(d);
  }
  std::vector<uint64_t> word_weights(corpus.num_words());
  for (WordId w = 0; w < corpus.num_words(); ++w) {
    word_weights[w] = corpus.word_frequency(w);
  }
  plan.doc_block =
      PartitionByTokens(doc_weights, plan.num_doc_blocks, strategy, seed);
  plan.word_block =
      PartitionByTokens(word_weights, plan.num_word_blocks, strategy,
                        SplitMix64(seed));
  return plan;
}

}  // namespace warplda
