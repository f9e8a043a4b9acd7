#include "analyze/fix.h"

#include <algorithm>
#include <utility>

#include "analyze/automaton_check.h"
#include "analyze/mask_check.h"
#include "analyze/witness.h"
#include "common/strutil.h"
#include "lang/event_parser.h"
#include "lang/lexer.h"
#include "semantics/oracle.h"

namespace ode {

namespace {

bool IsLiteralBool(const MaskExpr& m, bool value) {
  return m.kind == MaskKind::kLiteral && m.literal.Truthy() == value;
}

/// Bottom-up constant simplification of a mask: boolean structure is
/// recursed into, and any non-literal subterm the analyzer proves constant
/// (interval engine + linear solver) is replaced by the literal. A node
/// proven kNever is only folded *inside* boolean structure — a whole mask
/// collapsing to `false` is an L001 error to surface, not to rewrite.
MaskExprPtr SimplifyMask(const MaskExprPtr& mask) {
  MaskExprPtr node = mask;
  if (mask->kind == MaskKind::kBinary &&
      (mask->op == MaskOp::kAnd || mask->op == MaskOp::kOr)) {
    MaskExprPtr a = SimplifyMask(mask->children[0]);
    MaskExprPtr b = SimplifyMask(mask->children[1]);
    bool is_and = mask->op == MaskOp::kAnd;
    // Literal short-circuits: the neutral operand vanishes, the absorbing
    // one wins.
    if (IsLiteralBool(*a, is_and)) return b;
    if (IsLiteralBool(*b, is_and)) return a;
    if (IsLiteralBool(*a, !is_and)) return a;
    if (IsLiteralBool(*b, !is_and)) return b;
    if (a != mask->children[0] || b != mask->children[1]) {
      node = MaskExpr::Binary(mask->op, a, b);
    }
  } else if (mask->kind == MaskKind::kUnary && mask->op == MaskOp::kNot) {
    MaskExprPtr a = SimplifyMask(mask->children[0]);
    if (a->kind == MaskKind::kLiteral) {
      return MaskExpr::Literal(Value(!a->literal.Truthy()));
    }
    if (a != mask->children[0]) node = MaskExpr::Unary(MaskOp::kNot, a);
  }
  if (node->kind != MaskKind::kLiteral) {
    switch (AnalyzeMaskTruth(*node)) {
      case MaskTruth::kAlways:
        return MaskExpr::Literal(Value(true));
      case MaskTruth::kNever:
        return MaskExpr::Literal(Value(false));
      case MaskTruth::kUnknown:
        break;
    }
  }
  return node;
}

/// Shallow clone with replaced children (EventExpr nodes are immutable).
EventExprPtr WithChildren(const EventExpr& e,
                          std::vector<EventExprPtr> children) {
  auto copy = std::make_shared<EventExpr>(e);
  copy->children = std::move(children);
  return copy;
}

void Note(std::vector<AppliedFix>* fixes, const std::string& trigger,
          const char* code, std::string description) {
  AppliedFix fix;
  fix.trigger = trigger;
  fix.description = std::move(description);
  fix.code = code;
  fixes->push_back(std::move(fix));
}

/// Drops kMasked nodes whose mask the analyzer proves always true.
/// `Masked(E, true)` is `E` at every history point whatever the database
/// state, so this normalization preserves semantics; it lets the
/// DFA/oracle gates see through a mask drop made *under* a count
/// operator, where the original's nested mask node would otherwise be an
/// unverifiable gate (the comparison calls it incomparable and the
/// oracle refuses it).
EventExprPtr DropProvenMasks(const EventExprPtr& event) {
  std::vector<EventExprPtr> children;
  bool changed = false;
  children.reserve(event->children.size());
  for (const EventExprPtr& c : event->children) {
    EventExprPtr r = DropProvenMasks(c);
    changed |= r != c;
    children.push_back(std::move(r));
  }
  EventExprPtr node =
      changed ? WithChildren(*event, std::move(children)) : event;
  if (node->kind == EventExprKind::kMasked &&
      AnalyzeMaskTruth(*node->mask) == MaskTruth::kAlways) {
    return node->children[0];
  }
  return node;
}

/// Minimal disjoint edits turning the original declaration into
/// `fixed_text`: a token-level LCS aligns the two token streams, and each
/// maximal run of mismatched tokens becomes one byte-range edit (replace
/// runs keep the canonical rewrite's exact spacing; insert runs anchor
/// before the next surviving token). Offsets index the *original* file.
/// Returns empty when the fixed text does not tokenize (caller falls back
/// to the whole-declaration span).
std::vector<FixEdit> ComputeFixEdits(const std::vector<Token>& all_tokens,
                                     std::string_view padded,
                                     const std::string& fixed_text) {
  Result<std::vector<Token>> fixed_tokens = Tokenize(fixed_text);
  if (!fixed_tokens.ok() || fixed_tokens->size() < 2) return {};
  // Both streams end with a kEnd sentinel; drop it.
  const size_t n = all_tokens.size() - 1;
  const size_t m = fixed_tokens->size() - 1;
  auto a_tok = [&](size_t i) -> const Token& { return all_tokens[i]; };
  auto b_tok = [&](size_t j) -> const Token& { return (*fixed_tokens)[j]; };
  auto a_text = [&](size_t i) {
    return padded.substr(a_tok(i).offset, a_tok(i).length);
  };
  auto b_text = [&](size_t j) {
    return std::string_view(fixed_text)
        .substr(b_tok(j).offset, b_tok(j).length);
  };
  std::vector<std::vector<size_t>> lcs(n + 1, std::vector<size_t>(m + 1, 0));
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      lcs[i][j] = a_text(i) == b_text(j)
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::vector<FixEdit> edits;
  size_t i = 0;
  size_t j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a_text(i) == b_text(j)) {
      ++i;
      ++j;
      continue;
    }
    // A maximal run of mismatches: consecutive deletions from the original
    // and insertions from the rewrite, merged into one replacement.
    const size_t i0 = i;
    const size_t j0 = j;
    while (i < n || j < m) {
      if (i < n && j < m && a_text(i) == b_text(j)) break;
      if (i < n && (j >= m || lcs[i + 1][j] >= lcs[i][j + 1])) {
        ++i;
      } else {
        ++j;
      }
    }
    FixEdit edit;
    std::string inserted;
    if (j > j0) {
      const Token& bf = b_tok(j0);
      const Token& bl = b_tok(j - 1);
      inserted = fixed_text.substr(bf.offset,
                                   bl.offset + bl.length - bf.offset);
    }
    if (i > i0) {
      edit.byte_start = a_tok(i0).offset;
      edit.byte_end = a_tok(i - 1).offset + a_tok(i - 1).length;
      edit.replacement = std::move(inserted);
    } else if (i < n) {
      // Pure insertion before the next surviving original token.
      edit.byte_start = edit.byte_end = a_tok(i).offset;
      edit.replacement = inserted + " ";
    } else {
      // Pure insertion at the end of the declaration.
      edit.byte_start = edit.byte_end =
          a_tok(n - 1).offset + a_tok(n - 1).length;
      edit.replacement = " " + inserted;
    }
    edits.push_back(std::move(edit));
  }
  return edits;
}

/// Applies `edits` (sorted, disjoint) to a copy of `padded` and reparses:
/// the minimal edit list is only offered when the patched declaration
/// round-trips to exactly the verified rewrite.
bool VerifyEdits(const std::vector<FixEdit>& edits, std::string_view padded,
                 const std::string& fixed_text) {
  if (edits.empty()) return false;
  std::string patched(padded);
  for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
    if (it->byte_end > patched.size() || it->byte_start > it->byte_end) {
      return false;
    }
    patched.replace(it->byte_start, it->byte_end - it->byte_start,
                    it->replacement);
  }
  Result<TriggerSpec> reparsed = ParseTriggerSpec(patched);
  return reparsed.ok() && reparsed->ToString() == fixed_text;
}

}  // namespace

EventExprPtr RewriteEventExpr(const EventExprPtr& event,
                              std::vector<AppliedFix>* fixes,
                              const std::string& trigger_name) {
  const EventExpr& e = *event;

  // Children first, so count collapses and mask drops see rewritten
  // operands.
  std::vector<EventExprPtr> children;
  bool child_changed = false;
  children.reserve(e.children.size());
  for (const EventExprPtr& c : e.children) {
    EventExprPtr r = RewriteEventExpr(c, fixes, trigger_name);
    child_changed |= r != c;
    children.push_back(std::move(r));
  }
  EventExprPtr node =
      child_changed ? WithChildren(e, std::move(children)) : event;

  switch (e.kind) {
    case EventExprKind::kAtom:
      if (e.atom_mask != nullptr) {
        MaskExprPtr simplified = SimplifyMask(e.atom_mask);
        if (IsLiteralBool(*simplified, true)) {
          Note(fixes, trigger_name, "L002",
               StrFormat("dropped always-true mask '%s'",
                         e.atom_mask->ToString().c_str()));
          return EventExpr::Atom(e.atom, nullptr);
        }
        if (simplified != e.atom_mask &&
            !IsLiteralBool(*simplified, false)) {
          Note(fixes, trigger_name, "L002",
               StrFormat("simplified mask '%s' to '%s'",
                         e.atom_mask->ToString().c_str(),
                         simplified->ToString().c_str()));
          return EventExpr::Atom(e.atom, std::move(simplified));
        }
      }
      return node;
    case EventExprKind::kMasked: {
      MaskExprPtr simplified = SimplifyMask(e.mask);
      if (IsLiteralBool(*simplified, true)) {
        Note(fixes, trigger_name, "L002",
             StrFormat("dropped always-true mask '%s'",
                       e.mask->ToString().c_str()));
        return node->children[0];
      }
      if (simplified != e.mask && !IsLiteralBool(*simplified, false)) {
        Note(fixes, trigger_name, "L002",
             StrFormat("simplified mask '%s' to '%s'",
                       e.mask->ToString().c_str(),
                       simplified->ToString().c_str()));
        return EventExpr::Masked(node->children[0], std::move(simplified));
      }
      return node;
    }
    case EventExprKind::kRelativeN:
    case EventExprKind::kSequenceN:
    case EventExprKind::kEvery:
      // `relative/sequence/every 1 (E)` is `E` (the L007 note verbatim).
      if (e.n == 1) {
        Note(fixes, trigger_name, "L007",
             StrFormat("collapsed degenerate '%s 1' count",
                       e.kind == EventExprKind::kRelativeN ? "relative"
                       : e.kind == EventExprKind::kSequenceN ? "sequence"
                                                             : "every"));
        return node->children[0];
      }
      return node;
    case EventExprKind::kOr: {
      // `E | empty` is `E`. (In every other operator an `empty` operand
      // collapses the surrounding event — that is a finding to surface,
      // not a rewrite to make.)
      bool a_empty = node->children[0]->kind == EventExprKind::kEmpty;
      bool b_empty = node->children[1]->kind == EventExprKind::kEmpty;
      if (a_empty != b_empty) {
        Note(fixes, trigger_name, "L008",
             "pruned 'empty' operand of '|'");
        return node->children[a_empty ? 1 : 0];
      }
      return node;
    }
    default:
      return node;
  }
}

bool VerifyRewrite(const EventExprPtr& original, const EventExprPtr& fixed,
                   const FixOptions& options) {
  if (original->ToString() == fixed->ToString()) return true;

  // Normalize away masks the analyzer proves always true (a solver
  // theorem, re-derived here independently of the rewrite pass). The
  // gates below then verify every *structural* change against the
  // normalized original.
  EventExprPtr norm_original = DropProvenMasks(original);
  EventExprPtr norm_fixed = DropProvenMasks(fixed);
  if (norm_original->ToString() == norm_fixed->ToString()) return true;

  // Gate 1: DFA equivalence over the realizable joint alphabet, with
  // root-mask differences resolved by solver implication (both ways, or
  // the relation is not kEquivalent).
  Result<PairComparison> cmp =
      CompareEventExprsDetailed(norm_original, norm_fixed, options.compile);
  if (!cmp.ok() || cmp->relation != PairRelation::kEquivalent) return false;

  // Gate 2: agreement with the §4 denotational oracle at every point of
  // random realizable histories over the joint alphabet (none exist when
  // no symbol is realizable: nothing to disagree on).
  Result<std::optional<JointPair>> joint =
      CompileJointPair(norm_original, norm_fixed, options.compile);
  if (!joint.ok() || !joint->has_value()) return false;
  const JointPair& pair = **joint;
  Oracle oracle_a(pair.core_a, &pair.alphabet);
  Oracle oracle_b(pair.core_b, &pair.alphabet);
  for (const std::vector<SymbolId>& history : RandomRealizableHistories(
           pair.possible, options.oracle_histories,
           options.oracle_history_length, options.oracle_seed)) {
    Result<std::vector<bool>> pa = oracle_a.OccurrencePoints(history);
    Result<std::vector<bool>> pb = oracle_b.OccurrencePoints(history);
    if (!pa.ok() || !pb.ok() || *pa != *pb) return false;
  }
  return true;
}

FixResult FixSpecSource(std::string_view source, const FixOptions& options) {
  FixResult result;
  result.fixed_source = std::string(source);

  struct Splice {
    size_t begin;
    size_t end;
    std::string text;
  };
  std::vector<Splice> splices;

  for (const SpecBlock& block : SplitSpecBlocks(source)) {
    std::string padded = PadBlockToFile(source, block);
    Result<std::vector<Token>> tokens = Tokenize(padded);
    if (!tokens.ok() || tokens->size() < 2) continue;  // Comments only.
    Result<TriggerSpec> spec = ParseTriggerSpec(padded);
    if (!spec.ok() || spec->event == nullptr) continue;

    std::string name = spec->name.empty() ? "<trigger>" : spec->name;
    std::vector<AppliedFix> fixes;
    EventExprPtr rewritten = RewriteEventExpr(spec->event, &fixes, name);
    if (fixes.empty()) continue;

    if (!VerifyRewrite(spec->event, rewritten, options)) {
      result.suppressed += fixes.size();
      continue;
    }

    TriggerSpec fixed_spec = *spec;
    fixed_spec.event = rewritten;
    // Replace the declaration's token range (first token to last real
    // token before kEnd), preserving surrounding comments.
    const Token& first = tokens->front();
    const Token& last = (*tokens)[tokens->size() - 2];
    splices.push_back(Splice{first.offset, last.offset + last.length,
                             fixed_spec.ToString()});
    // Prefer minimal disjoint edits (one per touched span, schema v5);
    // fall back to the whole-declaration splice when the minimal form
    // fails its apply-and-reparse check.
    std::vector<FixEdit> edits =
        ComputeFixEdits(*tokens, padded, splices.back().text);
    if (!VerifyEdits(edits, padded, splices.back().text)) {
      edits = {FixEdit{splices.back().begin, splices.back().end,
                       splices.back().text}};
    }
    for (AppliedFix& fix : fixes) {
      fix.has_span = true;
      fix.byte_start = splices.back().begin;
      fix.byte_end = splices.back().end;
      fix.replacement = splices.back().text;
      fix.edits = edits;
    }
    result.applied.insert(result.applied.end(),
                          std::make_move_iterator(fixes.begin()),
                          std::make_move_iterator(fixes.end()));
  }

  // Splice back-to-front so earlier offsets stay valid.
  std::sort(splices.begin(), splices.end(),
            [](const Splice& a, const Splice& b) { return a.begin > b.begin; });
  for (const Splice& s : splices) {
    result.fixed_source.replace(s.begin, s.end - s.begin, s.text);
  }
  return result;
}

}  // namespace ode
