#include "mask/mask_ast.h"

#include "common/strutil.h"

namespace ode {

std::string_view MaskOpName(MaskOp op) {
  switch (op) {
    case MaskOp::kOr: return "||";
    case MaskOp::kAnd: return "&&";
    case MaskOp::kNot: return "!";
    case MaskOp::kEq: return "==";
    case MaskOp::kNe: return "!=";
    case MaskOp::kLt: return "<";
    case MaskOp::kLe: return "<=";
    case MaskOp::kGt: return ">";
    case MaskOp::kGe: return ">=";
    case MaskOp::kAdd: return "+";
    case MaskOp::kSub: return "-";
    case MaskOp::kMul: return "*";
    case MaskOp::kDiv: return "/";
    case MaskOp::kMod: return "%";
    case MaskOp::kNeg: return "-";
  }
  return "?";
}

MaskExprPtr MaskExpr::Literal(Value v) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

MaskExprPtr MaskExpr::Ident(std::string name) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kIdent;
  e->name = std::move(name);
  return e;
}

MaskExprPtr MaskExpr::Member(MaskExprPtr base, std::string field) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kMember;
  e->name = std::move(field);
  e->children.push_back(std::move(base));
  return e;
}

MaskExprPtr MaskExpr::Call(std::string fn, std::vector<MaskExprPtr> args) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kCall;
  e->name = std::move(fn);
  e->children = std::move(args);
  return e;
}

MaskExprPtr MaskExpr::Unary(MaskOp op, MaskExprPtr operand) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kUnary;
  e->op = op;
  e->children.push_back(std::move(operand));
  return e;
}

MaskExprPtr MaskExpr::Binary(MaskOp op, MaskExprPtr lhs, MaskExprPtr rhs) {
  auto e = std::make_shared<MaskExpr>();
  e->kind = MaskKind::kBinary;
  e->op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

MaskExprPtr MaskExpr::And(MaskExprPtr a, MaskExprPtr b) {
  return Binary(MaskOp::kAnd, std::move(a), std::move(b));
}

MaskExprPtr MaskExpr::Not(MaskExprPtr a) {
  return Unary(MaskOp::kNot, std::move(a));
}

std::string MaskExpr::ToString() const {
  switch (kind) {
    case MaskKind::kLiteral:
      return literal.ToString();
    case MaskKind::kIdent:
      return name;
    case MaskKind::kMember:
      return children[0]->ToString() + "." + name;
    case MaskKind::kCall: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const MaskExprPtr& c : children) args.push_back(c->ToString());
      return name + "(" + Join(args, ", ") + ")";
    }
    case MaskKind::kUnary:
      return std::string(MaskOpName(op)) + children[0]->ToString();
    case MaskKind::kBinary:
      // Fully parenthesized canonical form: identity is unambiguous and the
      // text re-parses to an equal tree.
      return StrFormat("(%s %s %s)", children[0]->ToString().c_str(),
                       std::string(MaskOpName(op)).c_str(),
                       children[1]->ToString().c_str());
  }
  return "?";
}

bool MaskExpr::Equals(const MaskExpr& other) const {
  return ToString() == other.ToString();
}

void MaskExpr::CollectIdents(std::vector<std::string>* out) const {
  if (kind == MaskKind::kIdent) {
    out->push_back(name);
    return;
  }
  for (const MaskExprPtr& c : children) c->CollectIdents(out);
}

}  // namespace ode
