#ifndef RAVEN_RELATIONAL_KERNEL_H_
#define RAVEN_RELATIONAL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/chunk.h"
#include "relational/expression.h"

namespace raven::relational {

/// Where one kernel operand's values come from.
struct KernelOperand {
  enum class Kind : std::uint8_t {
    kColumn,     ///< chunk column, by ordinal resolved at compile time
    kRegister,   ///< a previous instruction's output register
    kImmediate,  ///< a compile-time constant (literal or folded subtree)
  };
  Kind kind = Kind::kImmediate;
  std::int32_t index = 0;  ///< column ordinal or register index
  double imm = 0.0;        ///< kImmediate payload
};

/// An Expr tree compiled once into a postorder sequence of typed columnar
/// kernels over a vector-register pool.
///
/// Compared to Expr::Evaluate — which re-resolves column names with a
/// per-chunk string scan and allocates fresh std::vector temporaries for
/// every interior node of every chunk — a compiled program:
///  - resolves every column reference to an ordinal exactly once, failing
///    at compile time (with the column and operator named) on unknown or
///    ambiguous references;
///  - folds constant subtrees into immediates;
///  - runs each binary kernel as a tight loop specialized for its operand
///    shape (vector/vector, vector/scalar, scalar/vector), writing into
///    registers that are allocated once and reused for every chunk;
///  - compiles a CASE, together with every CASE nested in its THEN/ELSE
///    positions, into one decision walk: each row follows its own path
///    from the root arm to a leaf, so an inlined decision tree costs
///    O(depth) compares per row rather than O(nodes) full-chunk passes.
///    Rows walk branch-free in lockstep blocks for the longest path's
///    length; a row that reaches its leaf early stays on it.
///
/// Numeric semantics are identical to the interpreter: the same IEEE-754
/// operations are applied per row in the same order, so compiled plans
/// produce byte-identical results. Kernels evaluate all rows of the chunk
/// (a walk tests a column-or-register against an immediate only for the
/// rows that reach the arm; a WHEN comparing two non-immediates runs as a
/// whole-chunk compare ahead of the walk, whose unreached rows are never
/// read); a selection vector, if any, is applied downstream at gather
/// points (filters refine it, projections gather through it).
///
/// A compiled program is immutable: instructions, walk node tables,
/// immediates, resolved ordinals and the result operand. Everything a run
/// writes lives in a caller-owned Scratch, so one program is shared
/// read-only by every worker tree of a statement (see SharedProgram) while
/// each tree keeps its own Scratch.
class KernelProgram {
 private:
  /// A leaf's value resolved against the current chunk: row i reads
  /// p[i & mask]; an immediate points at its one value with mask 0.
  struct Lane {
    const double* p = nullptr;
    std::size_t mask = 0;
  };

  /// A walk node resolved for the current chunk: row i goes to
  /// next[(holds >> Outcome(p[i], imm)) & 1]. A leaf's arm never leaves it
  /// (holds 0, both next itself) and reads the root arm's values for
  /// nothing; its value is its Lane.
  struct ResolvedArm {
    const double* p = nullptr;
    double imm = 0.0;
    std::uint32_t holds = 0;
    std::int32_t next[2] = {0, 0};
  };

 public:
  /// The memory one run writes: the vector registers, reused across
  /// chunks, and a decision walk's per-chunk resolved arms and leaves. Owned by
  /// one operator tree (thread-confined); any number of programs may run
  /// over the same Scratch, one at a time, since a run's result is only
  /// valid until the next run anyway.
  class Scratch {
   private:
    friend class KernelProgram;
    std::vector<std::vector<double>> regs_;
    std::vector<ResolvedArm> walk_arms_;
    std::vector<Lane> walk_leaves_;
  };

  KernelProgram() = default;
  KernelProgram(KernelProgram&&) = default;
  KernelProgram& operator=(KernelProgram&&) = default;

  /// Compiles `expr` against the (positional) column schema the owning
  /// operator's input chunks will carry. `op_context` names that operator
  /// for diagnostics, e.g. "Filter" or "Project expression 2 (score)".
  static Result<KernelProgram> Compile(const Expr& expr,
                                       const std::vector<std::string>& schema,
                                       const std::string& op_context);

  /// Evaluates over all rows of `chunk`, writing only to `scratch`. The
  /// returned vector is either a register in `scratch` or a column of
  /// `chunk`; it is valid until the next Run over the same scratch (or
  /// until the chunk mutates). Never returns nullptr on OK.
  Result<const std::vector<double>*> Run(const DataChunk& chunk,
                                         Scratch* scratch) const;

  /// Like Run over a scratch of its own, but copies the result into `out`
  /// (interpreter-parity shape, used by tests and callers that keep the
  /// values past the next chunk).
  Status RunInto(const DataChunk& chunk, std::vector<double>* out) const;

  /// Ordinal of `name` in `schema`; NotFound / InvalidArgument (ambiguous)
  /// with `name` and `op_context` in the message. Shared by operators that
  /// resolve plain column references (aggregates, joins, PREDICT inputs)
  /// so all Open-time schema errors read the same.
  static Result<std::int64_t> ResolveOrdinal(
      const std::vector<std::string>& schema, const std::string& name,
      const std::string& op_context);

  std::size_t num_instructions() const { return instrs_.size(); }
  std::size_t num_registers() const { return num_regs_; }

 private:
  /// One node of a decision walk. An arm node sends a row to next[1] if
  /// `args[value] cmp imm` holds, else to next[0], where args[value] is a
  /// column or register; `holds` encodes cmp as the compare outcomes
  /// (less, equal, greater, unordered) it accepts. Every WHEN compiles to
  /// that form: `imm cmp vec` swaps the less and greater outcomes, a
  /// compare of two non-immediates becomes a kCompare register tested
  /// `reg != 0.0`, and any other WHEN is `when != 0.0` (NaN counts as
  /// true). A leaf node's value is args[value] (any operand kind), and it
  /// sends every row back to itself.
  struct WalkNode {
    std::int32_t value = 0;
    double imm = 0.0;
    std::uint32_t holds = 0;
    std::int32_t next[2] = {0, 0};  ///< {else, then}
    bool leaf = false;
  };

  struct Instr {
    enum class Op : std::uint8_t {
      kCompare,
      kArith,
      kAnd,
      kOr,
      kNot,
      kWalk,  ///< decision walk; args = every operand the nodes and leaves
              ///< read, so their registers stay live until it runs
      kIn,
    };
    Op op = Op::kCompare;
    CompareOp cmp = CompareOp::kEq;
    ArithOp arith = ArithOp::kAdd;
    std::int32_t out = 0;
    std::vector<KernelOperand> args;
    std::vector<double> in_values;  ///< kIn candidate list
    std::vector<WalkNode> nodes;    ///< kWalk node table
    std::int32_t root = 0;          ///< kWalk entry node
    std::int32_t steps = 0;         ///< kWalk: most arms on any path
  };

  class Compiler;

  /// Walks every row of the chunk through a kWalk instruction's node table
  /// and writes the reached leaf's value to out[i].
  static void RunWalk(const Instr& instr, const DataChunk& chunk,
                      std::size_t n, Scratch* scratch, double* out);

  /// Materializes operand `o`'s values for an n-row chunk: column pointer,
  /// register pointer, or nullptr for an immediate (the caller then uses
  /// o.imm as a scalar).
  static const std::vector<double>* Vec(const KernelOperand& o,
                                        const DataChunk& chunk,
                                        const Scratch& scratch);

  std::vector<Instr> instrs_;
  std::size_t num_regs_ = 0;  ///< registers a run needs in its Scratch
  KernelOperand result_;      ///< where the root's values land
};

/// One expression's KernelProgram, compiled on first use and then shared
/// read-only by every operator that evaluates the expression — in the
/// executor, every worker tree of one statement. The first Get compiles
/// under the lock (callers that arrive meanwhile wait for it); every later
/// Get returns that program, or that compile's error, so an Open-time
/// diagnostic reads the same at any dop. The trees sharing a program see
/// one input schema; a Get with another one is an internal error. The
/// expression is borrowed and must outlive this object: IR plans outlive
/// their executions.
class SharedProgram {
 public:
  /// `compiles`, when set, is incremented once per successful compile.
  explicit SharedProgram(const Expr* expr,
                         std::atomic<std::int64_t>* compiles = nullptr)
      : expr_(expr), compiles_(compiles) {}

  const Expr& expr() const { return *expr_; }

  /// The program compiled against `schema`; `op_context` names the
  /// operator in the diagnostics of that compile.
  Result<const KernelProgram*> Get(const std::vector<std::string>& schema,
                                   const std::string& op_context);

 private:
  const Expr* expr_;
  std::atomic<std::int64_t>* compiles_;
  std::mutex mu_;
  bool compiled_ = false;            // guarded by mu_, like the two below
  std::vector<std::string> schema_;  // the first Get's
  Result<KernelProgram> program_ = Status::Internal("not compiled");
};

using SharedProgramPtr = std::shared_ptr<SharedProgram>;

/// Gathers `values` through a selection vector into `out` (plain copy when
/// `sel` is empty). The compact-output half of selection-vector execution.
void GatherSelected(const std::vector<double>& values,
                    const std::vector<std::int32_t>& sel,
                    std::vector<double>* out);

/// Order-independent, correctly-rounded float accumulator (a Shewchuk /
/// fsum-style expansion of non-overlapping partials, the compensated form
/// of Neumaier summation carried to full precision). SUM/AVG built on it
/// are bit-identical for ANY accumulation or merge order — sequential
/// chunks, morsel-parallel partials, and distributed fragments all round
/// the same exact value — which is what restores the engine's byte-
/// identical-at-any-dop guarantee for float aggregates.
///
/// Non-finite inputs are diverted to counters so they cannot poison the
/// expansion: the rounded result is NaN if any input was NaN or both
/// infinity signs appeared, +/-infinity if one sign appeared, else the
/// correctly rounded exact sum. The empty sum rounds to +0.0; an all
/// negative-zero input stream keeps its -0.0 (IEEE addition identities
/// fall out of the expansion itself, no special casing).
class ExactFloatSum {
 public:
  void Add(double v);
  void MergeFrom(const ExactFloatSum& other);
  /// The correctly rounded value of everything added so far.
  double Round() const;

 private:
  void AddFinite(double v);

  std::vector<double> terms_;  ///< increasing magnitude, non-overlapping
  std::int64_t pos_inf_ = 0;
  std::int64_t neg_inf_ = 0;
  bool saw_nan_ = false;
};

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_KERNEL_H_
