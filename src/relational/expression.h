#ifndef RAVEN_RELATIONAL_EXPRESSION_H_
#define RAVEN_RELATIONAL_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "relational/chunk.h"

namespace raven::relational {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Comparison operators for predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
/// Binary arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv };
/// Logical connectives.
enum class LogicalOp { kAnd, kOr, kNot };

const char* CompareOpToString(CompareOp op);
CompareOp FlipCompareOp(CompareOp op);

/// Vectorized scalar expression tree over DataChunk columns. Boolean
/// results use 0.0 / 1.0. This engine evaluates both WHERE predicates and
/// inlined models (decision trees compiled to nested CASE WHEN, the
/// relational analogue of SQL Server UDF inlining).
///
/// Query execution no longer walks these trees per chunk: operators
/// compile them once at Open() into a relational::KernelProgram
/// (kernel.h) with ordinals resolved and constants folded. Evaluate()
/// remains as the reference interpreter — kernel_test.cc checks compiled
/// programs against it bit-for-bit — and for one-off evaluation outside
/// an operator pipeline.
class Expr {
 public:
  enum class Kind {
    kColumnRef,
    kLiteral,
    kCompare,
    kArith,
    kLogical,
    kCaseWhen,
    kIn,
    kParam,
  };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Evaluates over all rows of the chunk into `out` (resized to fit).
  virtual Status Evaluate(const DataChunk& chunk,
                          std::vector<double>* out) const = 0;
  /// SQL-like rendering (EXPLAIN, generated SQL, plan dumps); literals
  /// print in `%g` form. Built by one AppendTo pass into one buffer.
  std::string ToString() const;
  /// Appends the rendering to `*out`, linear in the expression's size: an
  /// inlined forest renders tens of kilobytes per plan, so no node builds
  /// or copies an intermediate string.
  virtual void AppendTo(std::string* out) const = 0;
  virtual ExprPtr Clone() const = 0;
  /// Adds every referenced column name to `out`.
  virtual void CollectColumns(std::set<std::string>* out) const = 0;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(std::string name)
      : Expr(Kind::kColumnRef), name_(std::move(name)) {}
  const std::string& name() const { return name_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override { out->append(name_); }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(name_);
  }
  void CollectColumns(std::set<std::string>* out) const override {
    out->insert(name_);
  }

 private:
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(double value) : Expr(Kind::kLiteral), value_(value) {}
  double value() const { return value_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  void CollectColumns(std::set<std::string>*) const override {}

 private:
  double value_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kCompare), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  CompareOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<CompareExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }
  void CollectColumns(std::set<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kArith), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  ArithOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<ArithExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }
  void CollectColumns(std::set<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class LogicalExpr final : public Expr {
 public:
  /// For kNot, rhs is null.
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kLogical), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  LogicalOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr* rhs() const { return rhs_.get(); }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<LogicalExpr>(
        op_, lhs_->Clone(), rhs_ ? rhs_->Clone() : nullptr);
  }
  void CollectColumns(std::set<std::string>* out) const override {
    lhs_->CollectColumns(out);
    if (rhs_) rhs_->CollectColumns(out);
  }

 private:
  LogicalOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// CASE WHEN c1 THEN v1 WHEN c2 THEN v2 ... ELSE e END. Conditions are
/// evaluated in order; this is the compilation target for inlined decision
/// trees.
class CaseWhenExpr final : public Expr {
 public:
  struct Arm {
    ExprPtr when;
    ExprPtr then;
  };

  CaseWhenExpr(std::vector<Arm> arms, ExprPtr else_expr)
      : Expr(Kind::kCaseWhen), arms_(std::move(arms)),
        else_(std::move(else_expr)) {}
  const std::vector<Arm>& arms() const { return arms_; }
  const Expr* else_expr() const { return else_.get(); }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::set<std::string>* out) const override;

 private:
  std::vector<Arm> arms_;
  ExprPtr else_;
};

/// A `?` placeholder of a prepared statement, identified by its 0-based
/// lexical position in the statement text. Placeholders never evaluate:
/// EXECUTE substitutes literals into a clone of the prepared plan
/// (BindParameters) before execution, so hitting one at runtime means an
/// unbound parameter — a diagnosable ExecutionError, not UB.
class ParamExpr final : public Expr {
 public:
  explicit ParamExpr(std::int64_t index)
      : Expr(Kind::kParam), index_(index) {}
  std::int64_t index() const { return index_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<ParamExpr>(index_);
  }
  void CollectColumns(std::set<std::string>*) const override {}

 private:
  std::int64_t index_;
};

/// `expr IN (v1, v2, ...)` over numeric constants.
class InExpr final : public Expr {
 public:
  InExpr(ExprPtr input, std::vector<double> values)
      : Expr(Kind::kIn), input_(std::move(input)), values_(std::move(values)) {}
  const Expr& input() const { return *input_; }
  const std::vector<double>& values() const { return values_; }

  Status Evaluate(const DataChunk& chunk,
                  std::vector<double>* out) const override;
  void AppendTo(std::string* out) const override;
  ExprPtr Clone() const override {
    return std::make_unique<InExpr>(input_->Clone(), values_);
  }
  void CollectColumns(std::set<std::string>* out) const override {
    input_->CollectColumns(out);
  }

 private:
  ExprPtr input_;
  std::vector<double> values_;
};

// Convenience factories.
ExprPtr Col(const std::string& name);
ExprPtr Lit(double value);
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);

/// A predicate of the shape `column <op> constant`, the unit the cross
/// optimizer reasons about (predicate-based model pruning, pushdown).
struct SimplePredicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  double constant = 0.0;
};

/// Binary serialization of expression trees, in the common BinaryWriter
/// format (used by the plan-fragment wire protocol: WHERE predicates and
/// projection expressions ship to pool workers inside serialized IR
/// fragments). Deserialization is depth-limited so corrupt payloads fail
/// with a parse error instead of exhausting the stack.
void SerializeExpr(const Expr& expr, BinaryWriter* writer);
Result<ExprPtr> DeserializeExpr(BinaryReader* reader);

/// Deepest node (root = 0) DeserializeExpr accepts. Generated expressions
/// (model inlining) stay within it so every plan can ship to a worker.
constexpr int kMaxExprDepth = 128;

/// Splits a predicate tree into top-level AND conjuncts.
std::vector<const Expr*> ExtractConjuncts(const Expr& expr);

/// Recognizes `col <op> const` or `const <op> col` (flipping the operator).
std::optional<SimplePredicate> MatchSimplePredicate(const Expr& expr);

/// Rebuilds an AND tree from conjunct clones; nullptr when empty.
ExprPtr ConjoinClones(const std::vector<const Expr*>& conjuncts);

// -- Prepared-statement parameters ------------------------------------------

/// Largest ParamExpr index anywhere in `expr`, or -1 when it has none.
std::int64_t MaxParamIndex(const Expr& expr);

/// Clone of `expr` with every ParamExpr replaced by the literal value at
/// its index. Fails on an index outside `values` (too few parameters).
Result<ExprPtr> BindParameters(const Expr& expr,
                               const std::vector<double>& values);

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_EXPRESSION_H_
