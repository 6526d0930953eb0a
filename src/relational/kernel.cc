#include "relational/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

namespace raven::relational {

namespace {

double FoldCompare(CompareOp op, double l, double r) {
  switch (op) {
    case CompareOp::kEq:
      return l == r ? 1.0 : 0.0;
    case CompareOp::kNe:
      return l != r ? 1.0 : 0.0;
    case CompareOp::kLt:
      return l < r ? 1.0 : 0.0;
    case CompareOp::kLe:
      return l <= r ? 1.0 : 0.0;
    case CompareOp::kGt:
      return l > r ? 1.0 : 0.0;
    case CompareOp::kGe:
      return l >= r ? 1.0 : 0.0;
  }
  return 0.0;
}

/// How `l` compares to `r`, branch-free in two compares: 0 unordered
/// (either is NaN), 1 greater, 2 less, 3 equal.
std::uint32_t Outcome(double l, double r) {
  return static_cast<std::uint32_t>(l >= r) |
         static_cast<std::uint32_t>(l <= r) << 1;
}

constexpr std::uint32_t kUnordered = 1u << 0;
constexpr std::uint32_t kGreater = 1u << 1;
constexpr std::uint32_t kLess = 1u << 2;
constexpr std::uint32_t kEqual = 1u << 3;

/// The outcomes for which `op` holds, as a mask with bit Outcome(l, r)
/// set iff `l op r`.
std::uint32_t HoldsMask(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return kEqual;
    case CompareOp::kNe:
      return kUnordered | kLess | kGreater;
    case CompareOp::kLt:
      return kLess;
    case CompareOp::kLe:
      return kLess | kEqual;
    case CompareOp::kGt:
      return kGreater;
    case CompareOp::kGe:
      return kGreater | kEqual;
  }
  return 0;
}

/// The mask of `r op l` given the mask of `l op r`: less and greater trade
/// places, equal and unordered stay.
std::uint32_t MirrorHolds(std::uint32_t holds) {
  return (holds & (kUnordered | kEqual)) | ((holds & kLess) ? kGreater : 0u) |
         ((holds & kGreater) ? kLess : 0u);
}

double FoldArith(ArithOp op, double l, double r) {
  switch (op) {
    case ArithOp::kAdd:
      return l + r;
    case ArithOp::kSub:
      return l - r;
    case ArithOp::kMul:
      return l * r;
    case ArithOp::kDiv:
      return l / r;  // IEEE: +/-inf or NaN on zero divisors, like the
                     // interpreter; downstream total orders handle NaN
  }
  return 0.0;
}

/// Runs `f(l, r)` over n rows, specialized outside the loop for the operand
/// shape (vector/vector, vector/scalar, scalar/vector) — the libgdf-style
/// typed tight loop. Null vector pointer means "use the immediate".
template <typename F>
void BinaryKernel(const std::vector<double>* l, double limm,
                  const std::vector<double>* r, double rimm, std::size_t n,
                  std::vector<double>* out, F f) {
  out->resize(n);
  double* o = out->data();
  if (l != nullptr && r != nullptr) {
    const double* a = l->data();
    const double* b = r->data();
    for (std::size_t i = 0; i < n; ++i) o[i] = f(a[i], b[i]);
  } else if (l != nullptr) {
    const double* a = l->data();
    for (std::size_t i = 0; i < n; ++i) o[i] = f(a[i], rimm);
  } else if (r != nullptr) {
    const double* b = r->data();
    for (std::size_t i = 0; i < n; ++i) o[i] = f(limm, b[i]);
  } else {
    // Two immediates would have been folded at compile time; stay correct
    // anyway.
    const double v = f(limm, rimm);
    for (std::size_t i = 0; i < n; ++i) o[i] = v;
  }
}

}  // namespace

Result<std::int64_t> KernelProgram::ResolveOrdinal(
    const std::vector<std::string>& schema, const std::string& name,
    const std::string& op_context) {
  std::int64_t found = -1;
  int matches = 0;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == name) {
      found = static_cast<std::int64_t>(i);
      ++matches;
    }
  }
  if (matches == 0) {
    return Status::NotFound("column '" + name + "' not found (resolving " +
                            op_context + ")");
  }
  if (matches > 1) {
    return Status::InvalidArgument(
        "column '" + name + "' is ambiguous (" + std::to_string(matches) +
        " matches, resolving " + op_context + ")");
  }
  return found;
}

/// Postorder single-pass compiler. Registers are allocated from a free
/// list; an instruction's output register is claimed before its argument
/// registers are released, so outputs never alias inputs (a kWalk writes
/// row i's output while later rows' conditions and leaves are still
/// unread).
class KernelProgram::Compiler {
 public:
  Compiler(const std::vector<std::string>& schema, std::string op_context,
           KernelProgram* prog)
      : schema_(schema), op_context_(std::move(op_context)), prog_(prog) {}

  Result<KernelOperand> Emit(const Expr& expr) {
    switch (expr.kind()) {
      case Expr::Kind::kLiteral:
        return Immediate(static_cast<const LiteralExpr&>(expr).value());
      case Expr::Kind::kColumnRef: {
        const auto& ref = static_cast<const ColumnRefExpr&>(expr);
        RAVEN_ASSIGN_OR_RETURN(
            std::int64_t ordinal,
            ResolveOrdinal(schema_, ref.name(), op_context_));
        KernelOperand o;
        o.kind = KernelOperand::Kind::kColumn;
        o.index = static_cast<std::int32_t>(ordinal);
        return o;
      }
      case Expr::Kind::kParam: {
        const auto& param = static_cast<const ParamExpr&>(expr);
        // Same diagnosis as the interpreter, raised at compile (Open) time.
        return Status::ExecutionError(
            "unbound prepared-statement parameter ?" +
            std::to_string(param.index() + 1) +
            " (EXECUTE must bind every ? placeholder; compiling " +
            op_context_ + ")");
      }
      case Expr::Kind::kCompare: {
        const auto& cmp = static_cast<const CompareExpr&>(expr);
        RAVEN_ASSIGN_OR_RETURN(KernelOperand l, Emit(cmp.lhs()));
        RAVEN_ASSIGN_OR_RETURN(KernelOperand r, Emit(cmp.rhs()));
        if (IsImm(l) && IsImm(r)) {
          return Immediate(FoldCompare(cmp.op(), l.imm, r.imm));
        }
        Instr instr;
        instr.op = Instr::Op::kCompare;
        instr.cmp = cmp.op();
        instr.args = {l, r};
        return Push(std::move(instr));
      }
      case Expr::Kind::kArith: {
        const auto& arith = static_cast<const ArithExpr&>(expr);
        RAVEN_ASSIGN_OR_RETURN(KernelOperand l, Emit(arith.lhs()));
        RAVEN_ASSIGN_OR_RETURN(KernelOperand r, Emit(arith.rhs()));
        if (IsImm(l) && IsImm(r)) {
          return Immediate(FoldArith(arith.op(), l.imm, r.imm));
        }
        Instr instr;
        instr.op = Instr::Op::kArith;
        instr.arith = arith.op();
        instr.args = {l, r};
        return Push(std::move(instr));
      }
      case Expr::Kind::kLogical: {
        const auto& logical = static_cast<const LogicalExpr&>(expr);
        RAVEN_ASSIGN_OR_RETURN(KernelOperand l, Emit(logical.lhs()));
        if (logical.op() == LogicalOp::kNot) {
          if (IsImm(l)) return Immediate(l.imm == 0.0 ? 1.0 : 0.0);
          Instr instr;
          instr.op = Instr::Op::kNot;
          instr.args = {l};
          return Push(std::move(instr));
        }
        if (logical.rhs() == nullptr) {
          return Status::InvalidArgument("binary logical op missing rhs");
        }
        RAVEN_ASSIGN_OR_RETURN(KernelOperand r, Emit(*logical.rhs()));
        const bool is_and = logical.op() == LogicalOp::kAnd;
        if (IsImm(l) && IsImm(r)) {
          const bool lv = l.imm != 0.0;
          const bool rv = r.imm != 0.0;
          return Immediate((is_and ? lv && rv : lv || rv) ? 1.0 : 0.0);
        }
        Instr instr;
        instr.op = is_and ? Instr::Op::kAnd : Instr::Op::kOr;
        instr.args = {l, r};
        return Push(std::move(instr));
      }
      case Expr::Kind::kCaseWhen: {
        Instr walk;
        walk.op = Instr::Op::kWalk;
        RAVEN_ASSIGN_OR_RETURN(Target root, Flatten(expr, &walk));
        walk.root = root.node;
        walk.steps = root.steps;
        if (root.steps == 0) {
          const KernelOperand leaf = walk.args[static_cast<std::size_t>(
              walk.nodes[static_cast<std::size_t>(root.node)].value)];
          if (IsImm(leaf)) {
            // Every row reaches the same constant leaf: fold.
            Release(walk.args);
            return leaf;
          }
        }
        return Push(std::move(walk));
      }
      case Expr::Kind::kIn: {
        const auto& in = static_cast<const InExpr&>(expr);
        RAVEN_ASSIGN_OR_RETURN(KernelOperand input, Emit(in.input()));
        if (IsImm(input)) {
          bool found = false;
          for (double candidate : in.values()) {
            if (input.imm == candidate) {
              found = true;
              break;
            }
          }
          return Immediate(found ? 1.0 : 0.0);
        }
        Instr instr;
        instr.op = Instr::Op::kIn;
        instr.args = {input};
        instr.in_values = in.values();
        return Push(std::move(instr));
      }
    }
    return Status::Internal("unreachable expression kind in kernel compile");
  }

  std::int32_t num_regs() const { return num_regs_; }

 private:
  /// A WHEN condition: a constant, or the arm test `value cmp imm` with
  /// `value` a column or register and cmp encoded in `holds`.
  struct Condition {
    bool constant = false;
    double imm = 0.0;  ///< the constant's value, or the arm's immediate
    KernelOperand value;
    std::uint32_t holds = 0;
  };

  /// Brings a WHEN to arm form. A compare of a vector with an immediate is
  /// tested inside the walk (mirrored when the immediate is on the left); a
  /// compare of two vectors runs ahead of the walk as a kCompare register,
  /// and that register, like any other WHEN operand, is tested != 0.0.
  Result<Condition> EmitCondition(const Expr& when) {
    Condition c;
    if (when.kind() == Expr::Kind::kCompare) {
      const auto& cmp = static_cast<const CompareExpr&>(when);
      RAVEN_ASSIGN_OR_RETURN(KernelOperand l, Emit(cmp.lhs()));
      RAVEN_ASSIGN_OR_RETURN(KernelOperand r, Emit(cmp.rhs()));
      if (IsImm(l) && IsImm(r)) {
        c.constant = true;
        c.imm = FoldCompare(cmp.op(), l.imm, r.imm);
      } else if (IsImm(r)) {
        c.value = l;
        c.imm = r.imm;
        c.holds = HoldsMask(cmp.op());
      } else if (IsImm(l)) {
        c.value = r;
        c.imm = l.imm;
        c.holds = MirrorHolds(HoldsMask(cmp.op()));
      } else {
        Instr instr;
        instr.op = Instr::Op::kCompare;
        instr.cmp = cmp.op();
        instr.args = {l, r};
        c.value = Push(std::move(instr));
        c.holds = HoldsMask(CompareOp::kNe);
      }
      return c;
    }
    RAVEN_ASSIGN_OR_RETURN(c.value, Emit(when));
    if (IsImm(c.value)) {
      c.constant = true;
      c.imm = FoldCompare(CompareOp::kNe, c.value.imm, 0.0);
    } else {
      c.holds = HoldsMask(CompareOp::kNe);
    }
    return c;
  }

  /// A walk node and the most arm nodes a row passes through from it
  /// before it reaches a leaf.
  struct Target {
    std::int32_t node = 0;
    std::int32_t steps = 0;
  };

  /// Adds `expr` to the walk's node table and returns its entry. A CASE
  /// becomes one node per arm, arm k's else-target being arm k+1 (first
  /// match wins) and the last arm's the ELSE (0.0 when missing); its THEN
  /// and ELSE values flatten recursively. Anything else is a leaf. Arms
  /// are compiled in source order even when a constant WHEN makes them
  /// unreachable, so Open-time diagnostics match the interpreter's.
  Result<Target> Flatten(const Expr& expr, Instr* walk) {
    if (expr.kind() != Expr::Kind::kCaseWhen) {
      RAVEN_ASSIGN_OR_RETURN(KernelOperand value, Emit(expr));
      return Leaf(value, walk);
    }
    const auto& cw = static_cast<const CaseWhenExpr&>(expr);
    std::vector<Target> arms;  // reachable arm nodes with their THEN's steps
    std::optional<Target> decided;  // a constant-true arm's THEN
    for (const auto& arm : cw.arms()) {
      RAVEN_ASSIGN_OR_RETURN(Condition cond, EmitCondition(*arm.when));
      RAVEN_ASSIGN_OR_RETURN(Target then, Flatten(*arm.then, walk));
      if (decided) {
        Release({cond.value});  // unreachable arm: its value is dead
        continue;
      }
      if (cond.constant) {
        // Constant true catches every row; constant false passes them on.
        if (cond.imm != 0.0) decided = then;
        continue;
      }
      WalkNode node;
      node.value = Arg(cond.value, walk);
      node.imm = cond.imm;
      node.holds = cond.holds;
      node.next[1] = then.node;
      arms.push_back({static_cast<std::int32_t>(walk->nodes.size()),
                      then.steps});
      walk->nodes.push_back(node);
    }
    Target next;
    if (cw.else_expr() != nullptr) {
      RAVEN_ASSIGN_OR_RETURN(next, Flatten(*cw.else_expr(), walk));
    } else {
      next = Leaf(Immediate(0.0), walk);
    }
    if (decided) next = *decided;
    for (auto arm = arms.rbegin(); arm != arms.rend(); ++arm) {
      walk->nodes[static_cast<std::size_t>(arm->node)].next[0] = next.node;
      next = {arm->node, 1 + std::max(arm->steps, next.steps)};
    }
    return next;
  }

  static std::int32_t Arg(const KernelOperand& o, Instr* walk) {
    walk->args.push_back(o);
    return static_cast<std::int32_t>(walk->args.size() - 1);
  }

  /// A leaf node: its value is `o`, and it sends every row to itself.
  static Target Leaf(const KernelOperand& o, Instr* walk) {
    const auto self = static_cast<std::int32_t>(walk->nodes.size());
    WalkNode leaf;
    leaf.value = Arg(o, walk);
    leaf.next[0] = self;
    leaf.next[1] = self;
    leaf.leaf = true;
    walk->nodes.push_back(leaf);
    return {self, 0};
  }

  /// Returns the registers among `args` to the pool.
  void Release(const std::vector<KernelOperand>& args) {
    for (const KernelOperand& arg : args) {
      if (arg.kind == KernelOperand::Kind::kRegister) {
        free_regs_.push_back(arg.index);
      }
    }
  }

  static bool IsImm(const KernelOperand& o) {
    return o.kind == KernelOperand::Kind::kImmediate;
  }

  static KernelOperand Immediate(double v) {
    KernelOperand o;
    o.kind = KernelOperand::Kind::kImmediate;
    o.imm = v;
    return o;
  }

  /// Appends the instruction: claims an output register, then releases the
  /// argument registers back to the pool (postorder trees die after one
  /// use, so the pool stays ~tree-depth deep, not tree-size).
  KernelOperand Push(Instr instr) {
    std::int32_t out;
    if (!free_regs_.empty()) {
      out = free_regs_.back();
      free_regs_.pop_back();
    } else {
      out = num_regs_++;
    }
    instr.out = out;
    Release(instr.args);
    prog_->instrs_.push_back(std::move(instr));
    KernelOperand o;
    o.kind = KernelOperand::Kind::kRegister;
    o.index = out;
    return o;
  }

  const std::vector<std::string>& schema_;
  const std::string op_context_;
  KernelProgram* prog_;
  std::vector<std::int32_t> free_regs_;
  std::int32_t num_regs_ = 0;
};

Result<KernelProgram> KernelProgram::Compile(
    const Expr& expr, const std::vector<std::string>& schema,
    const std::string& op_context) {
  KernelProgram prog;
  Compiler compiler(schema, op_context, &prog);
  RAVEN_ASSIGN_OR_RETURN(prog.result_, compiler.Emit(expr));
  std::int32_t regs = compiler.num_regs();
  if (prog.result_.kind == KernelOperand::Kind::kImmediate && regs == 0) {
    regs = 1;  // splat target for an all-constant expression
  }
  prog.num_regs_ = static_cast<std::size_t>(regs);
  return prog;
}

const std::vector<double>* KernelProgram::Vec(const KernelOperand& o,
                                              const DataChunk& chunk,
                                              const Scratch& scratch) {
  switch (o.kind) {
    case KernelOperand::Kind::kColumn:
      return &chunk.cols[static_cast<std::size_t>(o.index)];
    case KernelOperand::Kind::kRegister:
      return &scratch.regs_[static_cast<std::size_t>(o.index)];
    case KernelOperand::Kind::kImmediate:
      return nullptr;
  }
  return nullptr;
}

Result<const std::vector<double>*> KernelProgram::Run(const DataChunk& chunk,
                                                     Scratch* scratch) const {
  const std::size_t n = static_cast<std::size_t>(chunk.num_rows());
  if (scratch->regs_.size() < num_regs_) scratch->regs_.resize(num_regs_);
  auto vec = [&chunk, scratch](const KernelOperand& o) {
    return Vec(o, chunk, *scratch);
  };
  for (const Instr& instr : instrs_) {
    std::vector<double>* out =
        &scratch->regs_[static_cast<std::size_t>(instr.out)];
    switch (instr.op) {
      case Instr::Op::kCompare: {
        const auto* l = vec(instr.args[0]);
        const auto* r = vec(instr.args[1]);
        const double li = instr.args[0].imm;
        const double ri = instr.args[1].imm;
        switch (instr.cmp) {
          case CompareOp::kEq:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a == b); });
            break;
          case CompareOp::kNe:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a != b); });
            break;
          case CompareOp::kLt:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a < b); });
            break;
          case CompareOp::kLe:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a <= b); });
            break;
          case CompareOp::kGt:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a > b); });
            break;
          case CompareOp::kGe:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return double(a >= b); });
            break;
        }
        break;
      }
      case Instr::Op::kArith: {
        const auto* l = vec(instr.args[0]);
        const auto* r = vec(instr.args[1]);
        const double li = instr.args[0].imm;
        const double ri = instr.args[1].imm;
        switch (instr.arith) {
          case ArithOp::kAdd:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return a + b; });
            break;
          case ArithOp::kSub:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return a - b; });
            break;
          case ArithOp::kMul:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return a * b; });
            break;
          case ArithOp::kDiv:
            BinaryKernel(l, li, r, ri, n, out,
                         [](double a, double b) { return a / b; });
            break;
        }
        break;
      }
      case Instr::Op::kAnd: {
        BinaryKernel(vec(instr.args[0]), instr.args[0].imm,
                     vec(instr.args[1]), instr.args[1].imm, n, out,
                     [](double a, double b) {
                       return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
                     });
        break;
      }
      case Instr::Op::kOr: {
        BinaryKernel(vec(instr.args[0]), instr.args[0].imm,
                     vec(instr.args[1]), instr.args[1].imm, n, out,
                     [](double a, double b) {
                       return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
                     });
        break;
      }
      case Instr::Op::kNot: {
        const auto* v = vec(instr.args[0]);
        out->resize(n);
        double* o = out->data();
        if (v != nullptr) {
          const double* a = v->data();
          for (std::size_t i = 0; i < n; ++i) o[i] = double(a[i] == 0.0);
        } else {
          const double c = double(instr.args[0].imm == 0.0);
          for (std::size_t i = 0; i < n; ++i) o[i] = c;
        }
        break;
      }
      case Instr::Op::kWalk: {
        out->resize(n);
        RunWalk(instr, chunk, n, scratch, out->data());
        break;
      }
      case Instr::Op::kIn: {
        const auto* v = vec(instr.args[0]);
        out->resize(n);
        double* o = out->data();
        for (std::size_t i = 0; i < n; ++i) {
          const double x = v != nullptr ? (*v)[i] : instr.args[0].imm;
          bool found = false;
          for (double candidate : instr.in_values) {
            if (x == candidate) {
              found = true;
              break;
            }
          }
          o[i] = found ? 1.0 : 0.0;
        }
        break;
      }
    }
  }
  switch (result_.kind) {
    case KernelOperand::Kind::kColumn:
      return &chunk.cols[static_cast<std::size_t>(result_.index)];
    case KernelOperand::Kind::kRegister:
      return &scratch->regs_[static_cast<std::size_t>(result_.index)];
    case KernelOperand::Kind::kImmediate:
      scratch->regs_[0].assign(n, result_.imm);
      return &scratch->regs_[0];
  }
  return Status::Internal("unreachable kernel result kind");
}

void KernelProgram::RunWalk(const Instr& instr, const DataChunk& chunk,
                            std::size_t n, Scratch* scratch, double* out) {
  std::vector<ResolvedArm>& arms = scratch->walk_arms_;
  std::vector<Lane>& leaves = scratch->walk_leaves_;
  arms.resize(instr.nodes.size());
  leaves.resize(instr.nodes.size());
  const auto arg = [&instr](const WalkNode& node) -> const KernelOperand& {
    return instr.args[static_cast<std::size_t>(node.value)];
  };
  // Every arm tests a column or register; a leaf's arm reads the root
  // arm's values for nothing (a walk without arms never takes a step).
  const double* root_values =
      instr.steps > 0
          ? Vec(arg(instr.nodes[static_cast<std::size_t>(instr.root)]), chunk,
                *scratch)
                ->data()
          : nullptr;
  for (std::size_t k = 0; k < instr.nodes.size(); ++k) {
    const WalkNode& node = instr.nodes[k];
    const KernelOperand& o = arg(node);
    const std::vector<double>* v = Vec(o, chunk, *scratch);
    leaves[k] = v != nullptr ? Lane{v->data(), ~std::size_t{0}}
                             : Lane{&o.imm, 0};
    arms[k] = {node.leaf ? root_values : leaves[k].p, node.imm, node.holds,
               {node.next[0], node.next[1]}};
  }
  // Rows walk in lockstep blocks for a fixed `steps` levels: a row that
  // reaches a leaf early stays on it, so the loop has no data-dependent
  // branch, and the block's rows are independent chains of loads the
  // core overlaps.
  constexpr std::size_t kBlock = 16;
  const ResolvedArm* arm = arms.data();
  const Lane* leaf = leaves.data();
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    std::int32_t t[kBlock];
    std::fill_n(t, kBlock, instr.root);
    for (std::int32_t step = 0; step < instr.steps; ++step) {
      for (std::size_t j = 0; j < m; ++j) {
        const ResolvedArm& a = arm[t[j]];
        const std::uint32_t outcome = Outcome(a.p[base + j], a.imm);
        t[j] = a.next[(a.holds >> outcome) & 1u];
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const Lane& l = leaf[t[j]];
      out[base + j] = l.p[(base + j) & l.mask];
    }
  }
}

Status KernelProgram::RunInto(const DataChunk& chunk,
                              std::vector<double>* out) const {
  Scratch scratch;
  RAVEN_ASSIGN_OR_RETURN(const std::vector<double>* values,
                         Run(chunk, &scratch));
  out->assign(values->begin(), values->end());
  return Status::OK();
}

Result<const KernelProgram*> SharedProgram::Get(
    const std::vector<std::string>& schema, const std::string& op_context) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!compiled_) {
    compiled_ = true;
    schema_ = schema;
    program_ = KernelProgram::Compile(*expr_, schema, op_context);
    if (program_.ok() && compiles_ != nullptr) {
      compiles_->fetch_add(1, std::memory_order_relaxed);
    }
  } else if (schema != schema_) {
    return Status::Internal("shared program for " + op_context +
                            " requested over a second input schema");
  }
  RAVEN_RETURN_IF_ERROR(program_.status());
  return &program_.value();
}

void GatherSelected(const std::vector<double>& values,
                    const std::vector<std::int32_t>& sel,
                    std::vector<double>* out) {
  if (sel.empty()) {
    out->assign(values.begin(), values.end());
    return;
  }
  out->clear();
  out->reserve(sel.size());
  for (std::int32_t i : sel) {
    out->push_back(values[static_cast<std::size_t>(i)]);
  }
}

// ---------------------------------------------------------------------------
// ExactFloatSum
// ---------------------------------------------------------------------------

void ExactFloatSum::Add(double v) {
  if (std::isnan(v)) {
    saw_nan_ = true;
    return;
  }
  if (std::isinf(v)) {
    if (v > 0.0) {
      ++pos_inf_;
    } else {
      ++neg_inf_;
    }
    return;
  }
  AddFinite(v);
}

void ExactFloatSum::AddFinite(double x) {
  // One round of the Shewchuk grow-expansion (the fsum inner loop): fold x
  // through every partial with TwoSum, keeping the non-zero low parts. The
  // partials stay non-overlapping and magnitude-increasing, so the set
  // represents the exact real-number sum regardless of input order.
  std::size_t kept = 0;
  for (std::size_t j = 0; j < terms_.size(); ++j) {
    double y = terms_[j];
    if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
    const double hi = x + y;
    if (std::isinf(hi)) {
      // The running sum left double range. The exact representation is
      // gone; saturate deterministically to the overflow sign and drop the
      // partials — the low part of an overflowed TwoSum is +/-inf or NaN
      // and must never enter the expansion.
      if (hi > 0.0) {
        ++pos_inf_;
      } else {
        ++neg_inf_;
      }
      terms_.clear();
      return;
    }
    const double lo = y - (hi - x);
    if (lo != 0.0) terms_[kept++] = lo;
    x = hi;
  }
  terms_.resize(kept);
  terms_.push_back(x);
}

void ExactFloatSum::MergeFrom(const ExactFloatSum& other) {
  saw_nan_ = saw_nan_ || other.saw_nan_;
  pos_inf_ += other.pos_inf_;
  neg_inf_ += other.neg_inf_;
  for (double term : other.terms_) AddFinite(term);
}

double ExactFloatSum::Round() const {
  if (saw_nan_ || (pos_inf_ > 0 && neg_inf_ > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_ > 0) return std::numeric_limits<double>::infinity();
  if (neg_inf_ > 0) return -std::numeric_limits<double>::infinity();
  if (terms_.empty()) return 0.0;
  // fsum's final correctly-rounded collapse: sum from the largest partial
  // down, then correct the round-to-even tie case using the sign of the
  // next partial below the first non-zero low part.
  std::size_t n = terms_.size();
  double hi = terms_[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = terms_[--n];
    hi = x + y;
    const double yr = hi - x;
    lo = y - yr;
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && terms_[n - 1] < 0.0) ||
                (lo > 0.0 && terms_[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

}  // namespace raven::relational
