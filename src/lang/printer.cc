#include "lang/printer.h"

#include "common/strutil.h"

namespace ode {

namespace {

/// Precedence levels for parenthesization: higher binds tighter.
int Precedence(EventExprKind kind) {
  switch (kind) {
    case EventExprKind::kSequence: return 1;  // `;` rendering uses calls.
    case EventExprKind::kOr: return 2;
    case EventExprKind::kAnd: return 3;
    case EventExprKind::kMasked: return 4;
    case EventExprKind::kNot: return 5;
    default: return 6;  // Atoms and operator calls never need parens.
  }
}

std::string Print(const EventExpr& e, int parent_prec);

std::string PrintCall(const char* name, const EventExpr& e,
                      bool with_n = false) {
  std::vector<std::string> args;
  args.reserve(e.children.size());
  for (const EventExprPtr& c : e.children) {
    args.push_back(Print(*c, 0));
  }
  std::string head(name);
  if (with_n) {
    head += StrFormat(" %lld ", static_cast<long long>(e.n));
  }
  return head + "(" + Join(args, ", ") + ")";
}

std::string Print(const EventExpr& e, int parent_prec) {
  int prec = Precedence(e.kind);
  std::string out;
  switch (e.kind) {
    case EventExprKind::kEmpty:
      out = "empty";
      break;
    case EventExprKind::kAtom:
      out = e.atom.ToString();
      if (e.atom_mask != nullptr) {
        out += " && " + e.atom_mask->ToString();
        // A masked atom binds like a postfix mask.
        prec = Precedence(EventExprKind::kMasked);
      }
      break;
    case EventExprKind::kOr:
      out = Print(*e.children[0], prec) + " | " + Print(*e.children[1], prec + 1);
      break;
    case EventExprKind::kAnd:
      out = Print(*e.children[0], prec) + " & " + Print(*e.children[1], prec + 1);
      break;
    case EventExprKind::kNot:
      out = "!";
      out += Print(*e.children[0], prec);
      break;
    case EventExprKind::kRelative:
      out = PrintCall("relative", e);
      break;
    case EventExprKind::kRelativePlus:
      out = PrintCall("relative+", e);
      break;
    case EventExprKind::kRelativeN:
      out = PrintCall("relative", e, /*with_n=*/true);
      break;
    case EventExprKind::kPrior:
      out = PrintCall("prior", e);
      break;
    case EventExprKind::kPriorN:
      out = PrintCall("prior", e, /*with_n=*/true);
      break;
    case EventExprKind::kSequence:
      out = PrintCall("sequence", e);
      break;
    case EventExprKind::kSequenceN:
      out = PrintCall("sequence", e, /*with_n=*/true);
      break;
    case EventExprKind::kChoose:
      out = PrintCall("choose", e, /*with_n=*/true);
      break;
    case EventExprKind::kEvery:
      out = PrintCall("every", e, /*with_n=*/true);
      break;
    case EventExprKind::kFa:
      out = PrintCall("fa", e);
      break;
    case EventExprKind::kFaAbs:
      out = PrintCall("faAbs", e);
      break;
    case EventExprKind::kMasked:
      out = Print(*e.children[0], prec + 1) + " && " + e.mask->ToString();
      break;
    case EventExprKind::kGateAtom:
      out = StrFormat("<gate %lld>", static_cast<long long>(e.n));
      break;
  }
  if (prec < parent_prec) return "(" + out + ")";
  return out;
}

}  // namespace

std::string PrintEventExpr(const EventExpr& expr) { return Print(expr, 0); }

std::string EventExpr::ToString() const { return PrintEventExpr(*this); }

}  // namespace ode
