#include "relational/expression.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

namespace raven::relational {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

/// printf's `%g` for the values it prints in fixed notation, 1e-4 <=
/// |value| < 1e6 after rounding to six significant digits: most literals.
/// Returns the end of what it wrote, or nullptr (nothing written) where it
/// cannot be sure of the six digits: outside that range, or when scaling
/// left the value within 1e-9 of a rounding tie.
char* FormatFixedG6(double value, char* p) {
  static constexpr double kPow10[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2,
                                      1e3,  1e4,  1e5,  1e6,  1e7, 1e8, 1e9};
  const double a = std::fabs(value);
  if (!(a >= kPow10[0] && a < kPow10[10])) return nullptr;  // NaN too
  // Decimal exponent: kPow10[e + 4] = 10^e. The tabled 1e-1..1e-4 sit just
  // above the true powers, so it may come out one low; the scaled value
  // then rounds to exactly 10^6, handled below.
  int exp10 = 5;
  while (a < kPow10[exp10 + 4]) --exp10;
  // a * 10^(5 - exp10), exact factor and one rounding: the product is
  // below 2^20, so it is off by < 6e-11 and only a fraction within 1e-9 of
  // .5 could round the wrong way.
  const double scaled = a * kPow10[9 - exp10];
  const double whole = std::floor(scaled);
  const double frac = scaled - whole;
  if (std::fabs(frac - 0.5) < 1e-9) return nullptr;
  auto digits = static_cast<std::int64_t>(whole) + (frac > 0.5 ? 1 : 0);
  if (digits == 1000000) {
    digits = 100000;
    ++exp10;
  }
  if (exp10 > 5 || digits < 100000 || digits > 999999) return nullptr;
  char d[6];
  for (int i = 5; i >= 0; --i, digits /= 10) {
    d[i] = static_cast<char>('0' + digits % 10);
  }
  int last = 5;  // %g drops trailing zeros
  while (d[last] == '0') --last;
  if (value < 0) *p++ = '-';
  int i = 0;
  if (exp10 >= 0) {
    while (i <= exp10) *p++ = d[i++];
  } else {
    *p++ = '0';
  }
  if (i <= last) {
    *p++ = '.';
    for (int z = exp10 + 1; z < 0; ++z) *p++ = '0';
    while (i <= last) *p++ = d[i++];
  }
  return p;
}

/// Appends `value` as printf's `%g` prints it, the form `std::ostream <<
/// double` has always given EXPLAIN and generated SQL. Rendering an inlined
/// forest formats thousands of literals, so the common fixed-notation case
/// skips the general conversion; to_chars with precision 6 is specified to
/// match `%g` everywhere else.
void AppendNumber(double value, std::string* out) {
  char buf[32];
  char* end = FormatFixedG6(value, buf);
  if (end == nullptr) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, 6)
              .ptr;
  }
  out->append(buf, end);
}

}  // namespace

std::string Expr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

Status ColumnRefExpr::Evaluate(const DataChunk& chunk,
                               std::vector<double>* out) const {
  RAVEN_ASSIGN_OR_RETURN(std::int64_t idx, chunk.ColumnIndex(name_));
  *out = chunk.cols[static_cast<std::size_t>(idx)];
  return Status::OK();
}

Status LiteralExpr::Evaluate(const DataChunk& chunk,
                             std::vector<double>* out) const {
  out->assign(static_cast<std::size_t>(chunk.num_rows()), value_);
  return Status::OK();
}

void LiteralExpr::AppendTo(std::string* out) const {
  AppendNumber(value_, out);
}

Status ParamExpr::Evaluate(const DataChunk& chunk,
                           std::vector<double>* out) const {
  (void)chunk;
  (void)out;
  return Status::ExecutionError("unbound prepared-statement parameter ?" +
                                std::to_string(index_ + 1) +
                                " (EXECUTE must bind every ? placeholder)");
}

void ParamExpr::AppendTo(std::string* out) const {
  out->push_back('?');
  out->append(std::to_string(index_ + 1));
}

// The Evaluate() implementations below allocate fresh temporaries per
// interior node per chunk — acceptable for the reference interpreter, and
// exactly the overhead KernelProgram's register pool removes on the query
// path. Keep any semantic change here mirrored in kernel.cc: the two
// engines must stay bit-identical (enforced by kernel_test.cc).
Status CompareExpr::Evaluate(const DataChunk& chunk,
                             std::vector<double>* out) const {
  std::vector<double> l;
  std::vector<double> r;
  RAVEN_RETURN_IF_ERROR(lhs_->Evaluate(chunk, &l));
  RAVEN_RETURN_IF_ERROR(rhs_->Evaluate(chunk, &r));
  out->resize(l.size());
  switch (op_) {
    case CompareOp::kEq:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] == r[i];
      break;
    case CompareOp::kNe:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] != r[i];
      break;
    case CompareOp::kLt:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] < r[i];
      break;
    case CompareOp::kLe:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] <= r[i];
      break;
    case CompareOp::kGt:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] > r[i];
      break;
    case CompareOp::kGe:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] >= r[i];
      break;
  }
  return Status::OK();
}

void CompareExpr::AppendTo(std::string* out) const {
  out->push_back('(');
  lhs_->AppendTo(out);
  out->push_back(' ');
  out->append(CompareOpToString(op_));
  out->push_back(' ');
  rhs_->AppendTo(out);
  out->push_back(')');
}

Status ArithExpr::Evaluate(const DataChunk& chunk,
                           std::vector<double>* out) const {
  std::vector<double> l;
  std::vector<double> r;
  RAVEN_RETURN_IF_ERROR(lhs_->Evaluate(chunk, &l));
  RAVEN_RETURN_IF_ERROR(rhs_->Evaluate(chunk, &r));
  out->resize(l.size());
  switch (op_) {
    case ArithOp::kAdd:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] + r[i];
      break;
    case ArithOp::kSub:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] - r[i];
      break;
    case ArithOp::kMul:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] * r[i];
      break;
    case ArithOp::kDiv:
      for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] / r[i];
      break;
  }
  return Status::OK();
}

void ArithExpr::AppendTo(std::string* out) const {
  const char* op = " ? ";
  switch (op_) {
    case ArithOp::kAdd:
      op = " + ";
      break;
    case ArithOp::kSub:
      op = " - ";
      break;
    case ArithOp::kMul:
      op = " * ";
      break;
    case ArithOp::kDiv:
      op = " / ";
      break;
  }
  out->push_back('(');
  lhs_->AppendTo(out);
  out->append(op);
  rhs_->AppendTo(out);
  out->push_back(')');
}

Status LogicalExpr::Evaluate(const DataChunk& chunk,
                             std::vector<double>* out) const {
  std::vector<double> l;
  RAVEN_RETURN_IF_ERROR(lhs_->Evaluate(chunk, &l));
  if (op_ == LogicalOp::kNot) {
    out->resize(l.size());
    for (std::size_t i = 0; i < l.size(); ++i) (*out)[i] = l[i] == 0.0;
    return Status::OK();
  }
  if (rhs_ == nullptr) {
    return Status::InvalidArgument("binary logical op missing rhs");
  }
  std::vector<double> r;
  RAVEN_RETURN_IF_ERROR(rhs_->Evaluate(chunk, &r));
  out->resize(l.size());
  if (op_ == LogicalOp::kAnd) {
    for (std::size_t i = 0; i < l.size(); ++i) {
      (*out)[i] = (l[i] != 0.0 && r[i] != 0.0) ? 1.0 : 0.0;
    }
  } else {
    for (std::size_t i = 0; i < l.size(); ++i) {
      (*out)[i] = (l[i] != 0.0 || r[i] != 0.0) ? 1.0 : 0.0;
    }
  }
  return Status::OK();
}

void LogicalExpr::AppendTo(std::string* out) const {
  if (op_ == LogicalOp::kNot) {
    out->append("NOT ");
    lhs_->AppendTo(out);
    return;
  }
  out->push_back('(');
  lhs_->AppendTo(out);
  out->append(op_ == LogicalOp::kAnd ? " AND " : " OR ");
  rhs_->AppendTo(out);
  out->push_back(')');
}

Status CaseWhenExpr::Evaluate(const DataChunk& chunk,
                              std::vector<double>* out) const {
  const std::size_t n = static_cast<std::size_t>(chunk.num_rows());
  std::vector<double> else_vals;
  if (else_ != nullptr) {
    RAVEN_RETURN_IF_ERROR(else_->Evaluate(chunk, &else_vals));
  } else {
    else_vals.assign(n, 0.0);
  }
  *out = std::move(else_vals);
  std::vector<bool> decided(n, false);
  std::vector<double> cond;
  std::vector<double> val;
  for (const auto& arm : arms_) {
    RAVEN_RETURN_IF_ERROR(arm.when->Evaluate(chunk, &cond));
    RAVEN_RETURN_IF_ERROR(arm.then->Evaluate(chunk, &val));
    for (std::size_t i = 0; i < n; ++i) {
      if (!decided[i] && cond[i] != 0.0) {
        (*out)[i] = val[i];
        decided[i] = true;
      }
    }
  }
  return Status::OK();
}

void CaseWhenExpr::AppendTo(std::string* out) const {
  out->append("CASE");
  for (const auto& arm : arms_) {
    out->append(" WHEN ");
    arm.when->AppendTo(out);
    out->append(" THEN ");
    arm.then->AppendTo(out);
  }
  if (else_ != nullptr) {
    out->append(" ELSE ");
    else_->AppendTo(out);
  }
  out->append(" END");
}

ExprPtr CaseWhenExpr::Clone() const {
  std::vector<Arm> arms;
  arms.reserve(arms_.size());
  for (const auto& arm : arms_) {
    arms.push_back(Arm{arm.when->Clone(), arm.then->Clone()});
  }
  return std::make_unique<CaseWhenExpr>(std::move(arms),
                                        else_ ? else_->Clone() : nullptr);
}

void CaseWhenExpr::CollectColumns(std::set<std::string>* out) const {
  for (const auto& arm : arms_) {
    arm.when->CollectColumns(out);
    arm.then->CollectColumns(out);
  }
  if (else_ != nullptr) else_->CollectColumns(out);
}

Status InExpr::Evaluate(const DataChunk& chunk,
                        std::vector<double>* out) const {
  std::vector<double> v;
  RAVEN_RETURN_IF_ERROR(input_->Evaluate(chunk, &v));
  out->resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool found = false;
    for (double candidate : values_) {
      if (v[i] == candidate) {
        found = true;
        break;
      }
    }
    (*out)[i] = found ? 1.0 : 0.0;
  }
  return Status::OK();
}

void InExpr::AppendTo(std::string* out) const {
  input_->AppendTo(out);
  out->append(" IN (");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendNumber(values_[i], out);
  }
  out->push_back(')');
}

ExprPtr Col(const std::string& name) {
  return std::make_unique<ColumnRefExpr>(name);
}
ExprPtr Lit(double value) { return std::make_unique<LiteralExpr>(value); }
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kGe, std::move(lhs), std::move(rhs));
}
ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_unique<LogicalExpr>(LogicalOp::kNot, std::move(operand),
                                       nullptr);
}

void SerializeExpr(const Expr& expr, BinaryWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(expr.kind()));
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef:
      writer->WriteString(static_cast<const ColumnRefExpr&>(expr).name());
      return;
    case Expr::Kind::kLiteral:
      writer->WriteF64(static_cast<const LiteralExpr&>(expr).value());
      return;
    case Expr::Kind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      writer->WriteU8(static_cast<std::uint8_t>(cmp.op()));
      SerializeExpr(cmp.lhs(), writer);
      SerializeExpr(cmp.rhs(), writer);
      return;
    }
    case Expr::Kind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      writer->WriteU8(static_cast<std::uint8_t>(arith.op()));
      SerializeExpr(arith.lhs(), writer);
      SerializeExpr(arith.rhs(), writer);
      return;
    }
    case Expr::Kind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(expr);
      writer->WriteU8(static_cast<std::uint8_t>(logical.op()));
      SerializeExpr(logical.lhs(), writer);
      writer->WriteBool(logical.rhs() != nullptr);
      if (logical.rhs() != nullptr) SerializeExpr(*logical.rhs(), writer);
      return;
    }
    case Expr::Kind::kCaseWhen: {
      const auto& cw = static_cast<const CaseWhenExpr&>(expr);
      writer->WriteU64(cw.arms().size());
      for (const auto& arm : cw.arms()) {
        SerializeExpr(*arm.when, writer);
        SerializeExpr(*arm.then, writer);
      }
      writer->WriteBool(cw.else_expr() != nullptr);
      if (cw.else_expr() != nullptr) SerializeExpr(*cw.else_expr(), writer);
      return;
    }
    case Expr::Kind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      SerializeExpr(in.input(), writer);
      writer->WriteF64Vector(in.values());
      return;
    }
    case Expr::Kind::kParam:
      writer->WriteI64(static_cast<const ParamExpr&>(expr).index());
      return;
  }
}

namespace {

Result<ExprPtr> DeserializeExprAt(BinaryReader* reader, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::ParseError("expression tree too deep (corrupt payload?)");
  }
  RAVEN_ASSIGN_OR_RETURN(std::uint8_t tag, reader->ReadU8());
  if (tag > static_cast<std::uint8_t>(Expr::Kind::kParam)) {
    return Status::ParseError("unknown expression kind code " +
                              std::to_string(tag));
  }
  switch (static_cast<Expr::Kind>(tag)) {
    case Expr::Kind::kColumnRef: {
      RAVEN_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
      return ExprPtr(std::make_unique<ColumnRefExpr>(std::move(name)));
    }
    case Expr::Kind::kLiteral: {
      RAVEN_ASSIGN_OR_RETURN(double value, reader->ReadF64());
      return ExprPtr(std::make_unique<LiteralExpr>(value));
    }
    case Expr::Kind::kCompare: {
      RAVEN_ASSIGN_OR_RETURN(std::uint8_t op, reader->ReadU8());
      if (op > static_cast<std::uint8_t>(CompareOp::kGe)) {
        return Status::ParseError("unknown compare op code");
      }
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs,
                             DeserializeExprAt(reader, depth + 1));
      RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs,
                             DeserializeExprAt(reader, depth + 1));
      return ExprPtr(std::make_unique<CompareExpr>(static_cast<CompareOp>(op),
                                           std::move(lhs), std::move(rhs)));
    }
    case Expr::Kind::kArith: {
      RAVEN_ASSIGN_OR_RETURN(std::uint8_t op, reader->ReadU8());
      if (op > static_cast<std::uint8_t>(ArithOp::kDiv)) {
        return Status::ParseError("unknown arithmetic op code");
      }
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs,
                             DeserializeExprAt(reader, depth + 1));
      RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs,
                             DeserializeExprAt(reader, depth + 1));
      return ExprPtr(std::make_unique<ArithExpr>(static_cast<ArithOp>(op),
                                         std::move(lhs), std::move(rhs)));
    }
    case Expr::Kind::kLogical: {
      RAVEN_ASSIGN_OR_RETURN(std::uint8_t op, reader->ReadU8());
      if (op > static_cast<std::uint8_t>(LogicalOp::kNot)) {
        return Status::ParseError("unknown logical op code");
      }
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs,
                             DeserializeExprAt(reader, depth + 1));
      RAVEN_ASSIGN_OR_RETURN(bool has_rhs, reader->ReadBool());
      ExprPtr rhs;
      if (has_rhs) {
        RAVEN_ASSIGN_OR_RETURN(rhs, DeserializeExprAt(reader, depth + 1));
      }
      return ExprPtr(std::make_unique<LogicalExpr>(static_cast<LogicalOp>(op),
                                           std::move(lhs), std::move(rhs)));
    }
    case Expr::Kind::kCaseWhen: {
      RAVEN_ASSIGN_OR_RETURN(std::uint64_t n, reader->ReadU64());
      if (n > reader->remaining()) {
        return Status::ParseError("implausible CASE arm count");
      }
      std::vector<CaseWhenExpr::Arm> arms;
      arms.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        CaseWhenExpr::Arm arm;
        RAVEN_ASSIGN_OR_RETURN(arm.when,
                               DeserializeExprAt(reader, depth + 1));
        RAVEN_ASSIGN_OR_RETURN(arm.then,
                               DeserializeExprAt(reader, depth + 1));
        arms.push_back(std::move(arm));
      }
      RAVEN_ASSIGN_OR_RETURN(bool has_else, reader->ReadBool());
      ExprPtr else_expr;
      if (has_else) {
        RAVEN_ASSIGN_OR_RETURN(else_expr,
                               DeserializeExprAt(reader, depth + 1));
      }
      return ExprPtr(std::make_unique<CaseWhenExpr>(std::move(arms),
                                            std::move(else_expr)));
    }
    case Expr::Kind::kIn: {
      RAVEN_ASSIGN_OR_RETURN(ExprPtr input,
                             DeserializeExprAt(reader, depth + 1));
      RAVEN_ASSIGN_OR_RETURN(std::vector<double> values,
                             reader->ReadF64Vector());
      return ExprPtr(std::make_unique<InExpr>(std::move(input), std::move(values)));
    }
    case Expr::Kind::kParam: {
      RAVEN_ASSIGN_OR_RETURN(std::int64_t index, reader->ReadI64());
      if (index < 0) {
        return Status::ParseError("negative parameter index");
      }
      return ExprPtr(std::make_unique<ParamExpr>(index));
    }
  }
  return Status::ParseError("unreachable expression kind");
}

}  // namespace

Result<ExprPtr> DeserializeExpr(BinaryReader* reader) {
  return DeserializeExprAt(reader, 0);
}

std::vector<const Expr*> ExtractConjuncts(const Expr& expr) {
  std::vector<const Expr*> out;
  if (expr.kind() == Expr::Kind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(expr);
    if (logical.op() == LogicalOp::kAnd) {
      auto l = ExtractConjuncts(logical.lhs());
      auto r = ExtractConjuncts(*logical.rhs());
      out.insert(out.end(), l.begin(), l.end());
      out.insert(out.end(), r.begin(), r.end());
      return out;
    }
  }
  out.push_back(&expr);
  return out;
}

std::optional<SimplePredicate> MatchSimplePredicate(const Expr& expr) {
  if (expr.kind() != Expr::Kind::kCompare) return std::nullopt;
  const auto& cmp = static_cast<const CompareExpr&>(expr);
  const Expr& l = cmp.lhs();
  const Expr& r = cmp.rhs();
  if (l.kind() == Expr::Kind::kColumnRef && r.kind() == Expr::Kind::kLiteral) {
    return SimplePredicate{
        static_cast<const ColumnRefExpr&>(l).name(), cmp.op(),
        static_cast<const LiteralExpr&>(r).value()};
  }
  if (l.kind() == Expr::Kind::kLiteral && r.kind() == Expr::Kind::kColumnRef) {
    return SimplePredicate{
        static_cast<const ColumnRefExpr&>(r).name(), FlipCompareOp(cmp.op()),
        static_cast<const LiteralExpr&>(l).value()};
  }
  return std::nullopt;
}

ExprPtr ConjoinClones(const std::vector<const Expr*>& conjuncts) {
  ExprPtr out;
  for (const Expr* c : conjuncts) {
    out = out == nullptr ? c->Clone() : And(std::move(out), c->Clone());
  }
  return out;
}

std::int64_t MaxParamIndex(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kParam:
      return static_cast<const ParamExpr&>(expr).index();
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kLiteral:
      return -1;
    case Expr::Kind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      return std::max(MaxParamIndex(cmp.lhs()), MaxParamIndex(cmp.rhs()));
    }
    case Expr::Kind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      return std::max(MaxParamIndex(arith.lhs()), MaxParamIndex(arith.rhs()));
    }
    case Expr::Kind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(expr);
      std::int64_t out = MaxParamIndex(logical.lhs());
      if (logical.rhs() != nullptr) {
        out = std::max(out, MaxParamIndex(*logical.rhs()));
      }
      return out;
    }
    case Expr::Kind::kCaseWhen: {
      const auto& cw = static_cast<const CaseWhenExpr&>(expr);
      std::int64_t out = -1;
      for (const auto& arm : cw.arms()) {
        out = std::max(out, MaxParamIndex(*arm.when));
        out = std::max(out, MaxParamIndex(*arm.then));
      }
      if (cw.else_expr() != nullptr) {
        out = std::max(out, MaxParamIndex(*cw.else_expr()));
      }
      return out;
    }
    case Expr::Kind::kIn:
      return MaxParamIndex(static_cast<const InExpr&>(expr).input());
  }
  return -1;
}

Result<ExprPtr> BindParameters(const Expr& expr,
                               const std::vector<double>& values) {
  switch (expr.kind()) {
    case Expr::Kind::kParam: {
      const std::int64_t index = static_cast<const ParamExpr&>(expr).index();
      if (index < 0 || index >= static_cast<std::int64_t>(values.size())) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(index + 1) + " is out of range (" +
            std::to_string(values.size()) + " values bound)");
      }
      return Lit(values[static_cast<std::size_t>(index)]);
    }
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kLiteral:
      return expr.Clone();
    case Expr::Kind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, BindParameters(cmp.lhs(), values));
      RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, BindParameters(cmp.rhs(), values));
      return ExprPtr(std::make_unique<CompareExpr>(cmp.op(), std::move(lhs),
                                                   std::move(rhs)));
    }
    case Expr::Kind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, BindParameters(arith.lhs(), values));
      RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, BindParameters(arith.rhs(), values));
      return ExprPtr(std::make_unique<ArithExpr>(arith.op(), std::move(lhs),
                                                 std::move(rhs)));
    }
    case Expr::Kind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(expr);
      RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs,
                             BindParameters(logical.lhs(), values));
      ExprPtr rhs;
      if (logical.rhs() != nullptr) {
        RAVEN_ASSIGN_OR_RETURN(rhs, BindParameters(*logical.rhs(), values));
      }
      return ExprPtr(std::make_unique<LogicalExpr>(logical.op(),
                                                   std::move(lhs),
                                                   std::move(rhs)));
    }
    case Expr::Kind::kCaseWhen: {
      const auto& cw = static_cast<const CaseWhenExpr&>(expr);
      std::vector<CaseWhenExpr::Arm> arms;
      arms.reserve(cw.arms().size());
      for (const auto& arm : cw.arms()) {
        CaseWhenExpr::Arm bound;
        RAVEN_ASSIGN_OR_RETURN(bound.when, BindParameters(*arm.when, values));
        RAVEN_ASSIGN_OR_RETURN(bound.then, BindParameters(*arm.then, values));
        arms.push_back(std::move(bound));
      }
      ExprPtr else_expr;
      if (cw.else_expr() != nullptr) {
        RAVEN_ASSIGN_OR_RETURN(else_expr,
                               BindParameters(*cw.else_expr(), values));
      }
      return ExprPtr(std::make_unique<CaseWhenExpr>(std::move(arms),
                                                    std::move(else_expr)));
    }
    case Expr::Kind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      RAVEN_ASSIGN_OR_RETURN(ExprPtr input,
                             BindParameters(in.input(), values));
      return ExprPtr(std::make_unique<InExpr>(std::move(input), in.values()));
    }
  }
  return Status::Internal("unreachable expression kind in BindParameters");
}

}  // namespace raven::relational
