#include "lint_model.h"

#include <cctype>
#include <sstream>

namespace warplint {

const char* const kRuleIds[] = {
    "determinism",   "unordered-iter",    "hotpath-sync", "layering",
    "naked-new",     "memcpy-nontrivial", "alignas-pad",  "nolint",
    "scalar-ref",    "contract",          "schema",       "obs-orphan",
    "rng-stream",    "stale-nolint",
};
const size_t kNumRuleIds = sizeof(kRuleIds) / sizeof(kRuleIds[0]);

bool IsKnownRule(const std::string& id) {
  for (size_t i = 0; i < kNumRuleIds; ++i) {
    if (id == kRuleIds[i]) return true;
  }
  return false;
}

// ------------------------------------------------------------- scrubbing ---

std::vector<std::string> Scrub(const std::vector<std::string>& raw) {
  std::vector<std::string> out(raw.size());
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (size_t ln = 0; ln < raw.size(); ++ln) {
    const std::string& s = raw[ln];
    std::string o(s.size(), ' ');
    if (st == St::kLineComment) st = St::kCode;  // ends at newline
    for (size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      char n = i + 1 < s.size() ? s[i + 1] : '\0';
      switch (st) {
        case St::kCode:
          if (c == '/' && n == '/') {
            st = St::kLineComment;
          } else if (c == '/' && n == '*') {
            st = St::kBlockComment;
            ++i;
          } else if (c == '"') {
            o[i] = '"';
            st = St::kString;
          } else if (c == '\'') {
            o[i] = '\'';
            st = St::kChar;
          } else {
            o[i] = c;
          }
          break;
        case St::kLineComment:
          break;  // blank to end of line
        case St::kBlockComment:
          if (c == '*' && n == '/') {
            st = St::kCode;
            ++i;
          }
          break;
        case St::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            o[i] = '"';
            st = St::kCode;
          }
          break;
        case St::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            o[i] = '\'';
            st = St::kCode;
          }
          break;
      }
    }
    out[ln] = std::move(o);
  }
  return out;
}

void ParseNolint(SourceFile* f) {
  for (size_t ln = 0; ln < f->raw.size(); ++ln) {
    const std::string& s = f->raw[ln];
    size_t pos = s.find("NOLINT(");
    if (pos == std::string::npos) continue;
    size_t open = pos + 6;  // index of '('
    size_t close = s.find(')', open);
    if (close == std::string::npos) continue;
    Suppression sup;
    std::string inside = s.substr(open + 1, close - open - 1);
    std::stringstream ss(inside);
    std::string id;
    while (std::getline(ss, id, ',')) {
      // trim
      while (!id.empty() && std::isspace(static_cast<unsigned char>(id.front())))
        id.erase(id.begin());
      while (!id.empty() && std::isspace(static_cast<unsigned char>(id.back())))
        id.pop_back();
      const std::string prefix = "warplint-";
      if (id.rfind(prefix, 0) == 0) sup.rules.insert(id.substr(prefix.size()));
    }
    if (sup.rules.empty()) continue;  // someone else's NOLINT (clang-tidy)
    // Justification: a ':' right after the ')' with non-empty text.
    size_t j = close + 1;
    if (j < s.size() && s[j] == ':') {
      ++j;
      while (j < s.size() && std::isspace(static_cast<unsigned char>(s[j]))) ++j;
      sup.justified = j < s.size();
    }
    f->nolint[ln + 1] = std::move(sup);
  }
}

void Flatten(SourceFile* f) {
  f->flat_raw.clear();
  f->flat_code.clear();
  f->line_of.clear();
  for (size_t ln = 0; ln < f->code.size(); ++ln) {
    for (size_t i = 0; i < f->code[ln].size(); ++i) {
      f->flat_code.push_back(f->code[ln][i]);
      f->flat_raw.push_back(i < f->raw[ln].size() ? f->raw[ln][i] : ' ');
      f->line_of.push_back(ln);
    }
    f->flat_code.push_back('\n');
    f->flat_raw.push_back('\n');
    f->line_of.push_back(ln);
  }
}

// --------------------------------------------------------- small helpers ---

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool HasWord(const std::string& text, const std::string& word, size_t* at) {
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    bool l = pos == 0 || !IsIdent(text[pos - 1]);
    size_t end = pos + word.size();
    bool r = end >= text.size() || !IsIdent(text[end]);
    if (l && r) {
      if (at != nullptr) *at = pos;
      return true;
    }
    pos += word.size();
  }
  return false;
}

std::string Trim(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.erase(s.begin());
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.pop_back();
  return s;
}

bool StartsWith(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

std::string LayerOf(const std::string& rel) {
  if (!StartsWith(rel, "src/")) return "";
  size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------- body mapping ---

std::vector<BodyRange> ExtractMethodBodies(const SourceFile& f) {
  std::vector<BodyRange> bodies;
  const std::string& text = f.flat_code;
  const std::vector<size_t>& line_of = f.line_of;
  size_t i = 0;
  while ((i = text.find("::", i)) != std::string::npos) {
    size_t name_start = i + 2;
    size_t j = name_start;
    while (j < text.size() && IsIdent(text[j])) ++j;
    if (j == name_start) {
      i += 2;
      continue;
    }
    std::string name = text.substr(name_start, j - name_start);
    // Qualifier before the '::' — the (innermost) class name.
    size_t cb = i;
    while (cb > 0 && IsIdent(text[cb - 1])) --cb;
    std::string cls = text.substr(cb, i - cb);
    while (j < text.size() &&
           std::isspace(static_cast<unsigned char>(text[j])))
      ++j;
    if (j >= text.size() || text[j] != '(') {
      i = j;
      continue;
    }
    // Skip the parameter list.
    int pdepth = 0;
    for (; j < text.size(); ++j) {
      if (text[j] == '(') ++pdepth;
      if (text[j] == ')' && --pdepth == 0) {
        ++j;
        break;
      }
    }
    // Find the body '{', skipping const/noexcept/override and a
    // constructor init list (member brace-inits are preceded by an
    // identifier or '>'; the body brace is not).
    bool in_init_list = false;
    char prev_nonspace = ')';
    size_t body_open = std::string::npos;
    for (; j < text.size(); ++j) {
      char c = text[j];
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (c == ';') break;  // declaration, no body
      if (c == ':' && j + 1 < text.size() && text[j + 1] != ':') {
        in_init_list = true;
        prev_nonspace = c;
        continue;
      }
      if (c == '(') {  // init-list member parens: skip to match
        int d = 0;
        for (; j < text.size(); ++j) {
          if (text[j] == '(') ++d;
          if (text[j] == ')' && --d == 0) break;
        }
        prev_nonspace = ')';
        continue;
      }
      if (c == '{') {
        if (in_init_list && (IsIdent(prev_nonspace) || prev_nonspace == '>')) {
          int d = 0;  // member brace-init: skip to match
          for (; j < text.size(); ++j) {
            if (text[j] == '{') ++d;
            if (text[j] == '}' && --d == 0) break;
          }
          prev_nonspace = '}';
          continue;
        }
        body_open = j;
        break;
      }
      prev_nonspace = c;
    }
    if (body_open == std::string::npos) {
      i = j;
      continue;
    }
    int d = 0;
    size_t k = body_open;
    for (; k < text.size(); ++k) {
      if (text[k] == '{') ++d;
      if (text[k] == '}' && --d == 0) break;
    }
    if (k < text.size()) {
      bodies.push_back({cls, name, line_of[name_start] + 1,
                        line_of[body_open] + 1, line_of[k] + 1});
      i = k;
    } else {
      i = body_open + 1;
    }
  }
  return bodies;
}

std::vector<BodyRange> ExtractFreeFunctionBodies(const SourceFile& f) {
  static const std::set<std::string> kNotFunctions = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "new",    "delete", "alignof",  "defined",
  };
  std::vector<BodyRange> bodies;
  const std::string& text = f.flat_code;
  const std::vector<size_t>& line_of = f.line_of;
  size_t i = 0;
  while (i < text.size()) {
    if (!IsIdent(text[i])) {
      ++i;
      continue;
    }
    size_t name_start = i;
    while (i < text.size() && IsIdent(text[i])) ++i;
    std::string name = text.substr(name_start, i - name_start);
    // Method definitions (Name::Method) are ExtractMethodBodies' job.
    bool qualified = name_start >= 2 && text[name_start - 1] == ':' &&
                     text[name_start - 2] == ':';
    size_t j = i;
    while (j < text.size() &&
           std::isspace(static_cast<unsigned char>(text[j])))
      ++j;
    if (j >= text.size() || text[j] != '(' || qualified ||
        kNotFunctions.count(name) > 0) {
      continue;
    }
    int pdepth = 0;
    for (; j < text.size(); ++j) {
      if (text[j] == '(') ++pdepth;
      if (text[j] == ')' && --pdepth == 0) {
        ++j;
        break;
      }
    }
    // A definition continues with `{`, possibly after const/noexcept/
    // override; declarations and calls continue with `;`, `,`, `)`, and an
    // attribute's `((...))` is followed by the real declaration — any other
    // identifier here means this paren group was not a parameter list.
    size_t body_open = std::string::npos;
    for (; j < text.size(); ++j) {
      char c = text[j];
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (c == '{') body_open = j;
      if (c != '{' && IsIdent(c)) {
        size_t w = j;
        while (w < text.size() && IsIdent(text[w])) ++w;
        const std::string word = text.substr(j, w - j);
        if (word != "const" && word != "noexcept" && word != "override" &&
            word != "final")
          break;
        j = w - 1;
        continue;
      }
      break;
    }
    if (body_open == std::string::npos) {
      i = j;
      continue;
    }
    int d = 0;
    size_t k = body_open;
    for (; k < text.size(); ++k) {
      if (text[k] == '{') ++d;
      if (text[k] == '}' && --d == 0) break;
    }
    if (k < text.size()) {
      bodies.push_back({"", name, line_of[name_start] + 1,
                        line_of[body_open] + 1, line_of[k] + 1});
      i = k + 1;
    } else {
      i = body_open + 1;
    }
  }
  return bodies;
}

bool IsHotFunction(const std::string& name) {
  if (name.find("Block") != std::string::npos) return true;
  // Fused span parts, the batched accept kernel and its helpers run inside
  // RunBlock on every token; the Derive/ComputeAccept kernels are the SIMD
  // inner loops themselves; *ItemRange bodies are Iterate()'s per-token
  // passes and the barrier builds, run as pool tasks.
  if (name.find("Part") != std::string::npos) return true;
  if (name.find("Segment") != std::string::npos) return true;
  if (EndsWith(name, "ItemRange")) return true;
  if (StartsWith(name, "Derive") || StartsWith(name, "ComputeAccept"))
    return true;
  if (name == "Iterate" || name == "AcceptChain") return true;
  if (StartsWith(name, "Draw") || StartsWith(name, "Sample")) return true;
  return false;
}

bool IsContractHotBody(const std::string& name) {
  if (name == "RunBlock" || name == "RunBlockCaptured" || name == "RunTasks")
    return true;
  // Item-range tasks, run concurrently on an executor pool: span-barrier
  // builds and Iterate()'s whole-item passes (WarpLdaSampler::*ItemRange).
  if (EndsWith(name, "ItemRange") && name.size() > 9) return true;
  if (StartsWith(name, "Run") && name.size() >= 4 &&
      name.compare(name.size() - 4, 4, "Part") == 0)
    return true;
  if (name == "AcceptSegment" || name == "AcceptChain") return true;
  return StartsWith(name, "Draw") || StartsWith(name, "Derive") ||
         StartsWith(name, "ComputeAccept");
}

// ------------------------------------------------------------ class model ---

namespace {

// Skips a balanced (...) group; `*i` must point at or before the '('.
// Returns the args split at depth-1 commas.
std::vector<std::string> ParseParenArgs(const std::string& text, size_t* i) {
  std::vector<std::string> args;
  size_t j = *i;
  while (j < text.size() && text[j] != '(') {
    if (!std::isspace(static_cast<unsigned char>(text[j]))) return args;
    ++j;
  }
  if (j >= text.size()) return args;
  int depth = 0;
  std::string cur;
  for (; j < text.size(); ++j) {
    char c = text[j];
    if (c == '(') {
      if (++depth == 1) continue;
    }
    if (c == ')') {
      if (--depth == 0) {
        ++j;
        break;
      }
    }
    if (c == ',' && depth == 1) {
      args.push_back(Trim(cur));
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  std::string last = Trim(cur);
  if (!last.empty()) args.push_back(last);
  *i = j;
  return args;
}

std::string CollapseSpaces(const std::string& s) {
  std::string out;
  bool prev_space = false;
  for (char c : s) {
    bool sp = std::isspace(static_cast<unsigned char>(c));
    if (sp && prev_space) continue;
    out.push_back(sp ? ' ' : c);
    prev_space = sp;
  }
  return Trim(out);
}

// Removes template argument groups `<...>` whose '<' directly follows an
// identifier character (so comparisons in initializers survive).
std::string StripTemplateArgs(const std::string& s) {
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '<' && !out.empty() && IsIdent(out.back())) {
      int depth = 0;
      for (; i < s.size(); ++i) {
        if (s[i] == '<') ++depth;
        if (s[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      continue;
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

// Leading annotation macros on a member statement. Returns chars consumed.
size_t ParseMemberAnnotations(const std::string& stmt, Contract* contract,
                              std::vector<std::string>* writers) {
  size_t i = 0;
  while (true) {
    while (i < stmt.size() &&
           std::isspace(static_cast<unsigned char>(stmt[i])))
      ++i;
    size_t b = i;
    while (i < stmt.size() && IsIdent(stmt[i])) ++i;
    std::string w = stmt.substr(b, i - b);
    if (w == "WARP_WORKER_LOCAL") {
      *contract = Contract::kWorkerLocal;
      continue;
    }
    if (w == "WARP_BARRIER_ONLY") {
      *contract = Contract::kBarrierOnly;
      continue;
    }
    if (w == "WARP_IMMUTABLE_AFTER") {
      *contract = Contract::kImmutableAfter;
      *writers = ParseParenArgs(stmt, &i);
      continue;
    }
    if (w == "WARP_ITEM_OWNED") {
      *contract = Contract::kItemOwned;
      *writers = ParseParenArgs(stmt, &i);
      continue;
    }
    return b;
  }
}

const char* const kSkipLeaders[] = {
    "using", "typedef", "friend", "static_assert", "template", "enum",
    "struct", "class", "static", "constexpr", "inline", "extern", "return",
};

void ParseFieldStatement(const std::string& raw_stmt, size_t line,
                         ClassDef* def) {
  std::string stmt = CollapseSpaces(raw_stmt);
  // Strip access labels that got glued onto the statement front.
  for (bool again = true; again;) {
    again = false;
    for (const char* label : {"public", "private", "protected"}) {
      std::string l = std::string(label) + ":";
      if (StartsWith(stmt, l)) {
        stmt = Trim(stmt.substr(l.size()));
        again = true;
      }
    }
  }
  Contract contract = Contract::kNone;
  std::vector<std::string> writers;
  size_t ann = ParseMemberAnnotations(stmt, &contract, &writers);
  stmt = Trim(stmt.substr(ann));
  if (stmt.empty()) return;
  for (const char* kw : kSkipLeaders) {
    if (HasWord(stmt.substr(0, stmt.find(' ')), kw)) return;
  }
  if (stmt.find("operator") != std::string::npos) return;
  std::string stripped = StripTemplateArgs(stmt);
  size_t eq = stripped.find('=');
  size_t paren = stripped.find('(');
  if (paren != std::string::npos && (eq == std::string::npos || paren < eq))
    return;  // function declaration
  std::string head = Trim(eq == std::string::npos ? stripped
                                                  : stripped.substr(0, eq));
  if (head.empty()) return;
  // Peel trailing array extents: `int wake_pipe_[2]` -> name wake_pipe_.
  std::string array_suffix;
  while (!head.empty() && head.back() == ']') {
    size_t open = head.rfind('[');
    if (open == std::string::npos) return;
    array_suffix = head.substr(open) + array_suffix;
    head = Trim(head.substr(0, open));
  }
  // Name = last identifier token of the head; need at least a type before.
  size_t name_end = head.size();
  while (name_end > 0 &&
         std::isspace(static_cast<unsigned char>(head[name_end - 1])))
    --name_end;
  size_t name_begin = name_end;
  while (name_begin > 0 && IsIdent(head[name_begin - 1])) --name_begin;
  if (name_begin == name_end) return;
  std::string name = head.substr(name_begin, name_end - name_begin);
  std::string type_part = Trim(head.substr(0, name_begin));
  if (type_part.empty()) return;  // a lone identifier is not a declaration
  if (std::isdigit(static_cast<unsigned char>(name[0]))) return;
  // Recover the full (un-stripped) type text from the original statement.
  std::string type;
  size_t at = 0;
  std::string collapsed = stmt;
  if (HasWord(collapsed, name, &at)) {
    type = Trim(collapsed.substr(0, at));
  } else {
    type = type_part;
  }
  if (type.empty()) return;
  type += array_suffix;
  FieldDecl fd;
  fd.type = type;
  fd.name = name;
  fd.line = line;
  fd.contract = contract;
  fd.writers = writers;
  def->fields.push_back(std::move(fd));
}

}  // namespace

std::vector<ClassDef> CollectClasses(const SourceFile& f) {
  const std::string& text = f.flat_code;
  struct Open {
    ClassDef def;
    size_t open_off = 0;
    int open_depth = 0;
  };
  struct Span {
    ClassDef def;
    size_t open = 0;
    size_t close = 0;
  };
  std::vector<Span> spans;
  std::vector<Open> stack;
  bool pending = false;
  ClassDef pend;
  std::string last_word;
  size_t i = 0;
  int depth = 0;
  while (i < text.size()) {
    char c = text[i];
    if (IsIdent(c)) {
      size_t b = i;
      while (i < text.size() && IsIdent(text[i])) ++i;
      std::string word = text.substr(b, i - b);
      if ((word == "struct" || word == "class") && last_word != "enum") {
        ClassDef def;
        while (true) {
          while (i < text.size() &&
                 std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
          if (i >= text.size() || !IsIdent(text[i])) break;
          size_t wb = i;
          while (i < text.size() && IsIdent(text[i])) ++i;
          std::string w = text.substr(wb, i - wb);
          if (w == "WARP_WORKER_LOCAL") {
            def.contract = Contract::kWorkerLocal;
            continue;
          }
          if (w == "WARP_BARRIER_ONLY") {
            def.contract = Contract::kBarrierOnly;
            continue;
          }
          if (w == "WARP_IMMUTABLE_AFTER") {
            def.contract = Contract::kImmutableAfter;
            def.writers = ParseParenArgs(text, &i);
            continue;
          }
          if (w == "alignas") {
            ParseParenArgs(text, &i);
            continue;
          }
          def.name = w;
          def.line = f.line_of[wb] + 1;
          break;
        }
        if (!def.name.empty()) {
          def.file = f.rel;
          pend = def;
          pending = true;
        }
        last_word = word;
        continue;
      }
      last_word = word;
      continue;
    }
    if (c == ';') {
      pending = false;  // forward declaration
    } else if (c == '{') {
      if (pending) {
        Open o;
        o.def = pend;
        std::string q;
        for (const Open& e : stack) q += e.def.name + "::";
        o.def.qualified = q + o.def.name;
        o.open_off = i;
        o.open_depth = depth;
        stack.push_back(std::move(o));
        pending = false;
      }
      ++depth;
    } else if (c == '}') {
      --depth;
      if (!stack.empty() && stack.back().open_depth == depth) {
        Span sp;
        sp.def = std::move(stack.back().def);
        sp.open = stack.back().open_off;
        sp.close = i;
        spans.push_back(std::move(sp));
        stack.pop_back();
      }
    }
    ++i;
  }
  // Phase 2: direct field declarations for each span.
  std::vector<ClassDef> out;
  for (Span& sp : spans) {
    size_t p = sp.open + 1;
    std::string stmt;
    size_t stmt_line = 0;
    bool has_stmt = false;
    while (p < sp.close) {
      char c = text[p];
      if (c == '{') {
        int g = 0;
        for (; p < sp.close; ++p) {
          if (text[p] == '{') ++g;
          if (text[p] == '}' && --g == 0) {
            ++p;
            break;
          }
        }
        // A brace group at member scope is a nested definition or method
        // body unless it is an `= {...}` initializer.
        if (stmt.find('=') == std::string::npos) {
          stmt.clear();
          has_stmt = false;
        }
        continue;
      }
      if (c == ';') {
        if (has_stmt) ParseFieldStatement(stmt, stmt_line, &sp.def);
        stmt.clear();
        has_stmt = false;
        ++p;
        continue;
      }
      if (!has_stmt && !std::isspace(static_cast<unsigned char>(c))) {
        has_stmt = true;
        stmt_line = f.line_of[p] + 1;
      }
      stmt.push_back(c == '\n' ? ' ' : c);
      ++p;
    }
    // Class-level contracts apply to every member without its own.
    if (sp.def.contract != Contract::kNone) {
      for (FieldDecl& fd : sp.def.fields) {
        if (fd.contract == Contract::kNone &&
            sp.def.contract != Contract::kWorkerLocal) {
          fd.contract = sp.def.contract;
          fd.writers = sp.def.writers;
        }
      }
    }
    out.push_back(std::move(sp.def));
  }
  return out;
}

namespace {

// Member functions that change a container (or atomic, or smart pointer)
// itself rather than returning a reference into it.
const std::set<std::string>& MutatingCalls() {
  static const std::set<std::string> calls = {
      "push_back", "emplace_back", "pop_back", "clear",  "resize",
      "reserve",   "assign",       "insert",   "erase",  "swap",
      "fill",      "emplace",      "shrink_to_fit",      "store",
      "reset",
  };
  return calls;
}

// Advances *k past the balanced (...) group starting at line[*k] == '('.
// False when the group does not close on this line.
bool SkipParenGroup(const std::string& line, size_t* k) {
  int depth = 0;
  for (size_t j = *k; j < line.size(); ++j) {
    if (line[j] == '(') ++depth;
    if (line[j] == ')' && --depth == 0) {
      *k = j + 1;
      return true;
    }
  }
  return false;
}

}  // namespace

bool IsWriteAccess(const std::string& line, size_t begin, size_t end) {
  const std::set<std::string>& kMutatingCalls = MutatingCalls();
  // Prefix ++/--.
  size_t b = begin;
  while (b > 0 && line[b - 1] == ' ') --b;
  if (b >= 2 && ((line[b - 1] == '+' && line[b - 2] == '+') ||
                 (line[b - 1] == '-' && line[b - 2] == '-'))) {
    return true;
  }
  size_t j = end;
  const size_t n = line.size();
  for (int hops = 0; hops < 4; ++hops) {
    // Skip subscript groups.
    while (true) {
      while (j < n && line[j] == ' ') ++j;
      if (j < n && line[j] == '[') {
        int d = 0;
        for (; j < n; ++j) {
          if (line[j] == '[') ++d;
          if (line[j] == ']' && --d == 0) {
            ++j;
            break;
          }
        }
        if (d != 0) return false;  // subscript spans lines; give up
        continue;
      }
      break;
    }
    if (j >= n) return false;
    char c = line[j];
    if (c == '=') return j + 1 >= n || line[j + 1] != '=';
    if ((c == '+' || c == '-') && j + 1 < n && line[j + 1] == c) return true;
    if (std::string("+-*/%&|^").find(c) != std::string::npos && j + 1 < n &&
        line[j + 1] == '=') {
      return true;
    }
    if ((c == '<' || c == '>') && j + 2 < n && line[j + 1] == c &&
        line[j + 2] == '=') {
      return true;
    }
    if (c == '.' || (c == '-' && j + 1 < n && line[j + 1] == '>')) {
      j += (c == '.') ? 1 : 2;
      while (j < n && line[j] == ' ') ++j;
      size_t wb = j;
      while (j < n && IsIdent(line[j])) ++j;
      std::string m = line.substr(wb, j - wb);
      if (m.empty()) return false;
      size_t k = j;
      while (k < n && line[k] == ' ') ++k;
      if (k < n && line[k] == '(') {
        if (kMutatingCalls.count(m) > 0) return true;
        // An accessor returning a reference: `m_.entry_data(p) = x` still
        // mutates m_, so skip the call and keep looking right.
        if (!SkipParenGroup(line, &k)) return false;
        j = k;
      }
      continue;  // dotted field: an assignment further right still mutates
    }
    return false;
  }
  return false;
}

bool IsElementWrite(const std::string& line, size_t end) {
  size_t j = end;
  while (j < line.size() && line[j] == ' ') ++j;
  if (j < line.size() && line[j] == '[') return true;
  if (j >= line.size() || line[j] != '.') return false;
  ++j;
  while (j < line.size() && line[j] == ' ') ++j;
  const size_t wb = j;
  while (j < line.size() && IsIdent(line[j])) ++j;
  while (j < line.size() && line[j] == ' ') ++j;
  return j < line.size() && line[j] == '(' &&
         MutatingCalls().count(line.substr(wb, j - wb)) == 0;
}

}  // namespace warplint
