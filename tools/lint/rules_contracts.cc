// Rule family 1: machine-checked concurrency contracts (warplint-contract).
//
// src/util/contracts.h defines four no-op annotation macros; this pass
// turns them into checks over the class model:
//
//   WARP_WORKER_LOCAL       on a member: in concurrent grid bodies
//                           (IsContractHotBody) every access must be indexed
//                           by the worker argument (`scratch_[worker]`) or
//                           be a size query. On a struct: every member
//                           anywhere holding that type must itself carry
//                           WARP_WORKER_LOCAL.
//   WARP_BARRIER_ONLY       member may only be written between sweeps /
//                           at stage barriers: any write from a concurrent
//                           grid body is a race by construction.
//   WARP_IMMUTABLE_AFTER(F, ...)  member is frozen after F; only the listed
//                           methods (plus constructors) may write it, in
//                           any body, hot or not. On a struct the contract
//                           applies to every field.
//   WARP_ITEM_OWNED(B, ...) barrier-only, except that the listed *ItemRange
//                           bodies — whose tasks own whole items — may
//                           write elements in place (`m_[i] = x`,
//                           `m_.entry_data(p) = x`), never the container.
//                           Each listed name must be an *ItemRange body of
//                           the class, so a renamed or deleted body cannot
//                           leave its exemption behind, and no other
//                           concurrent body may call it: a listed body runs
//                           as its own task, never inside a block whose
//                           items other blocks share.
//
// Writes are detected through the owning class's own method bodies (bare
// `member` / `this->member`) and through *known instance paths*: if class D
// declares `GridState grid_;`, then `grid_.stage = ...` inside a D method
// is a write to GridState::stage. Matching by exact instance path is what
// keeps name collisions (GridState::base_word vs SweepCheckpoint::base_word)
// from producing false findings.
//
// Known blind spots, accepted to stay libclang-free: constructor init-lists
// and destructor bodies (inherently single-threaded phases), writes through
// references (`char& ran = grid_.block_ran[i]; ran = 1;`), and in-class
// inline method bodies (repo style keeps definitions in .cc files).

#include <map>
#include <set>

#include "lint_rules.h"

namespace warplint {

namespace {

const char* ContractName(Contract c) {
  switch (c) {
    case Contract::kWorkerLocal: return "WARP_WORKER_LOCAL";
    case Contract::kBarrierOnly: return "WARP_BARRIER_ONLY";
    case Contract::kImmutableAfter: return "WARP_IMMUTABLE_AFTER";
    case Contract::kItemOwned: return "WARP_ITEM_OWNED";
    default: return "";
  }
}

bool TypeMentions(const std::string& type, const std::string& cls) {
  return HasWord(type, cls);
}

// One annotated member reachable from bodies of `ctx` class methods via
// `prefix.member` (prefix empty = the member's own class).
struct Enforcement {
  std::string prefix;  // instance path head, e.g. "grid_"; may be empty
  const ClassDef* cls = nullptr;
  const FieldDecl* field = nullptr;
};

std::string Joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

bool ListedWriter(const std::string& body, const std::vector<std::string>& w) {
  for (const std::string& m : w) {
    if (m == body) return true;
  }
  return false;
}

// Whether a hot-body access at [begin,end) of a WORKER_LOCAL member is
// worker-indexed or a size query.
bool IsWorkerScopedAccess(const std::string& s, size_t end) {
  size_t j = end;
  while (j < s.size() && s[j] == ' ') ++j;
  if (j < s.size() && s[j] == '[') {
    size_t close = j;
    int d = 0;
    for (; close < s.size(); ++close) {
      if (s[close] == '[') ++d;
      if (s[close] == ']' && --d == 0) break;
    }
    if (close >= s.size()) return false;  // spans lines; be conservative
    std::string index = s.substr(j + 1, close - j - 1);
    return HasWord(index, "worker") || HasWord(index, "worker_id") ||
           HasWord(index, "tid");
  }
  if (j < s.size() && (s[j] == '.' || (s[j] == '-' && j + 1 < s.size() &&
                                       s[j + 1] == '>'))) {
    j += (s[j] == '.') ? 1 : 2;
    size_t wb = j;
    while (j < s.size() && IsIdent(s[j])) ++j;
    std::string m = s.substr(wb, j - wb);
    return m == "size" || m == "empty" || m == "capacity";
  }
  return false;
}

}  // namespace

ContractModel BuildContractModel(const std::vector<SourceFile>& files) {
  ContractModel model;
  for (const SourceFile& f : files) {
    // Fixture trees mirror src/; only model real source-shaped files.
    std::vector<ClassDef> defs = CollectClasses(f);
    for (ClassDef& d : defs) {
      if (model.by_name.count(d.name) == 0) {
        model.by_name[d.name] = model.classes.size();
      }
      model.classes.push_back(std::move(d));
    }
  }
  return model;
}

void CheckContracts(const std::vector<SourceFile>& files,
                    const ContractModel& model, std::vector<Finding>* out) {
  // (d) members holding a worker-local type must be annotated themselves.
  for (const ClassDef& wl : model.classes) {
    if (wl.contract != Contract::kWorkerLocal) continue;
    for (const ClassDef& d : model.classes) {
      if (d.name == wl.name) continue;
      for (const FieldDecl& fd : d.fields) {
        if (TypeMentions(fd.type, wl.name) &&
            fd.contract != Contract::kWorkerLocal) {
          out->push_back(
              {d.file, fd.line, "contract",
               "member '" + fd.name + "' holds worker-local type '" +
                   wl.name +
                   "' but is not annotated WARP_WORKER_LOCAL — per-worker "
                   "state must be declared so hot-body indexing is checked",
               false});
        }
      }
    }
  }

  // Enforcement map: context class -> annotated members reachable from it.
  std::map<std::string, std::vector<Enforcement>> by_ctx;
  for (const ClassDef& c : model.classes) {
    bool any = false;
    for (const FieldDecl& fd : c.fields) {
      if (fd.contract != Contract::kNone) any = true;
    }
    if (!any) continue;
    for (const FieldDecl& fd : c.fields) {
      if (fd.contract == Contract::kNone) continue;
      by_ctx[c.name].push_back({"", &c, &fd});
    }
    // Instance paths: D declares a member whose type names C.
    for (const ClassDef& d : model.classes) {
      if (d.name == c.name) continue;
      for (const FieldDecl& inst : d.fields) {
        if (!TypeMentions(inst.type, c.name)) continue;
        for (const FieldDecl& fd : c.fields) {
          if (fd.contract == Contract::kNone) continue;
          by_ctx[d.name].push_back({inst.name, &c, &fd});
        }
      }
    }
  }
  if (by_ctx.empty()) return;

  std::map<std::string, std::vector<BodyRange>> bodies_of;  // per file
  std::set<std::string> method_names;  // "Class::Method" with a body
  for (const SourceFile& f : files) {
    bodies_of[f.rel] = ExtractMethodBodies(f);
    for (const BodyRange& b : bodies_of[f.rel]) {
      method_names.insert(b.cls + "::" + b.name);
    }
  }

  // (e) a WARP_ITEM_OWNED exemption names existing item-range bodies only.
  for (const ClassDef& c : model.classes) {
    for (const FieldDecl& fd : c.fields) {
      if (fd.contract != Contract::kItemOwned) continue;
      for (const std::string& w : fd.writers) {
        std::string why;
        if (!EndsWith(w, "ItemRange")) {
          why = "which is not an *ItemRange task body — only a task that "
                "owns whole items may write in place";
        } else if (method_names.count(c.name + "::" + w) == 0) {
          why = "but " + c.name + " has no such body — a stale exemption";
        }
        if (why.empty()) continue;
        out->push_back({c.file, fd.line, "contract",
                        "WARP_ITEM_OWNED on '" + fd.name + "' lists '" + w +
                            "', " + why,
                        false});
      }
    }
  }

  // (f) a listed body runs only as its own task: a call from another
  // concurrent body would carry its in-place writes into a block that does
  // not own whole items.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      owned_writers;  // class -> (writer body, member)
  for (const ClassDef& c : model.classes) {
    for (const FieldDecl& fd : c.fields) {
      if (fd.contract != Contract::kItemOwned) continue;
      for (const std::string& w : fd.writers) {
        owned_writers[c.name].push_back({w, fd.name});
      }
    }
  }

  for (const SourceFile& f : files) {
    const std::vector<BodyRange>& bodies = bodies_of[f.rel];
    for (const BodyRange& b : bodies) {
      auto it = by_ctx.find(b.cls);
      if (it == by_ctx.end()) continue;
      const bool hot = IsContractHotBody(b.name);
      auto ow = owned_writers.find(b.cls);
      for (size_t ln = b.begin_line;
           hot && ow != owned_writers.end() && ln <= b.end_line &&
           ln <= f.code.size();
           ++ln) {
        for (const auto& [writer, member] : ow->second) {
          if (writer == b.name || !HasWord(f.code[ln - 1], writer)) continue;
          out->push_back({f.rel, ln, "contract",
                          "concurrent body '" + b.name + "' calls '" +
                              writer + "', which writes WARP_ITEM_OWNED '" +
                              member +
                              "' in place — it must run as its own "
                              "item-range task, not inside another body",
                          false});
        }
      }
      for (size_t ln = b.begin_line; ln <= b.end_line && ln <= f.code.size();
           ++ln) {
        const std::string& s = f.code[ln - 1];
        for (const Enforcement& e : it->second) {
          // Locate occurrences of the member on this line.
          size_t pos = 0;
          while (pos < s.size()) {
            size_t at = 0;
            std::string tail = s.substr(pos);
            size_t begin, end;
            if (e.prefix.empty()) {
              if (!HasWord(tail, e.field->name, &at)) break;
              begin = pos + at;
              end = begin + e.field->name.size();
            } else {
              if (!HasWord(tail, e.prefix, &at)) break;
              size_t j = pos + at + e.prefix.size();
              // Expect `.member` or `->member` right after the prefix.
              if (j < s.size() && s[j] == '.') {
                ++j;
              } else if (j + 1 < s.size() && s[j] == '-' && s[j + 1] == '>') {
                j += 2;
              } else {
                pos = pos + at + e.prefix.size();
                continue;
              }
              size_t wb = j;
              while (j < s.size() && IsIdent(s[j])) ++j;
              if (s.compare(wb, j - wb, e.field->name) != 0) {
                pos = pos + at + e.prefix.size();
                continue;
              }
              begin = wb;
              end = j;
            }
            const std::string shown =
                e.prefix.empty() ? e.field->name
                                 : e.prefix + "." + e.field->name;
            if (e.field->contract == Contract::kWorkerLocal && hot &&
                !IsWorkerScopedAccess(s, end)) {
              out->push_back(
                  {f.rel, ln, "contract",
                   "access to WARP_WORKER_LOCAL '" + shown +
                       "' in concurrent body '" + b.name +
                       "' is not indexed by the worker argument — "
                       "cross-worker scratch access races at stage "
                       "boundaries",
                   false});
            }
            if (IsWriteAccess(s, begin, end)) {
              if (e.field->contract == Contract::kBarrierOnly && hot) {
                out->push_back(
                    {f.rel, ln, "contract",
                     "write to WARP_BARRIER_ONLY '" + shown +
                         "' inside concurrent body '" + b.name +
                         "' — shared state may only be mutated at stage "
                         "barriers (stage the write in ThreadScratch and "
                         "apply it in EndStage/ApplyStagedMoves)",
                     false});
              }
              if (e.field->contract == Contract::kItemOwned && hot) {
                std::string why;
                if (!ListedWriter(b.name, e.field->writers)) {
                  why = "inside concurrent body '" + b.name +
                        "', which does not own whole items — only {" +
                        Joined(e.field->writers) + "} may write it in place";
                } else if (!IsElementWrite(s, end)) {
                  why = "changes the container in '" + b.name +
                        "' — an item-owning task may write its items' "
                        "elements, never the container itself";
                }
                if (!why.empty()) {
                  out->push_back({f.rel, ln, "contract",
                                  "write to WARP_ITEM_OWNED '" + shown +
                                      "' " + why,
                                  false});
                }
              }
              if (e.field->contract == Contract::kImmutableAfter &&
                  b.name != b.cls &&
                  !ListedWriter(b.name, e.field->writers)) {
                out->push_back(
                    {f.rel, ln, "contract",
                     "write to " + std::string(ContractName(
                                       Contract::kImmutableAfter)) +
                         " '" + shown + "' in '" + b.name +
                         "' — only {" + Joined(e.field->writers) +
                         "} (and constructors) may mutate it",
                     false});
              }
            }
            pos = end;
          }
        }
      }
    }
  }
}

}  // namespace warplint
