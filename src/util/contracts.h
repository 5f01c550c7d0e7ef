// Concurrency-contract annotations, machine-checked by warplint.
//
// These macros expand to nothing: they cost zero at compile time and run
// time, and exist purely so `tools/lint` can build a per-class model of who
// is allowed to touch which member when. The checked semantics
// (warplint-contract):
//
//   WARP_WORKER_LOCAL
//     On a member: per-worker state. Inside concurrent grid bodies
//     (RunBlock / Run*Part / AcceptSegment / AcceptChain / Draw* / RunTasks)
//     and barrier tasks (*ItemRange) every access must be indexed by the
//     worker argument (`scratch_[worker]`) — touching another worker's slot
//     races with its owner. On a struct: any member anywhere holding that
//     type must itself be annotated WARP_WORKER_LOCAL.
//
//   WARP_BARRIER_ONLY
//     Shared state that workers read during a stage but that may only be
//     written between stages (BeginSweep / EndStage / ApplyStagedMoves /
//     EndSweep — code running under the executor barrier). Any write from
//     a concurrent grid body is a race by construction: stage the change in
//     ThreadScratch and apply it barrier-side. Barrier-side builds (count
//     arenas, alias tables) run on the executor pool as *ItemRange tasks,
//     each writing only the elements of its own disjoint item range; the
//     container itself (resize, clear, assign) is still changed only on the
//     driver thread, which warplint checks since those bodies are concurrent.
//
//   WARP_IMMUTABLE_AFTER(Method, ...)
//     Frozen after setup: only the listed methods (plus constructors) may
//     write the member, from any body, hot or not. Use for plans, index
//     tables and priors that workers read without synchronisation.
//
// Annotations are declarations of intent, not wishes — warplint fails the
// build when the code disagrees. Suppress a deliberate exception with a
// justified warplint-contract suppression comment (see README, "Static
// analysis & invariants").

#ifndef WARP_UTIL_CONTRACTS_H_
#define WARP_UTIL_CONTRACTS_H_

#define WARP_WORKER_LOCAL
#define WARP_BARRIER_ONLY
#define WARP_IMMUTABLE_AFTER(...)

#endif  // WARP_UTIL_CONTRACTS_H_
