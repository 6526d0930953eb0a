#ifndef RAVEN_IR_IR_H_
#define RAVEN_IR_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "ir/clustered_model.h"
#include "ml/pipeline.h"
#include "nnrt/graph.h"
#include "relational/catalog.h"
#include "relational/expression.h"

namespace raven::ir {

/// Operator taxonomy of the unified IR (paper §3.1): relational algebra,
/// linear algebra, classical-ML / data featurizers, and black-box UDFs.
enum class OpCategory { kRelational, kLinearAlgebra, kClassicalMl, kUdf };

const char* OpCategoryToString(OpCategory category);

/// Operator kinds spanning both worlds. The IR deliberately mixes
/// higher-level operators (kModelPipeline — a whole sklearn-style pipeline)
/// and lower-level ones (kNnGraph — raw linear algebra), like MLIR: rules
/// lower between levels to unlock different optimizations.
enum class IrOpKind {
  // Relational algebra (RA).
  kTableScan,
  kFilter,
  kProject,
  kJoin,
  kUnionAll,
  kLimit,
  kAggregate,
  kGroupBy,
  kOrderBy,
  // Classical ML + featurizers (MLD). A pipeline node scores a trained
  // ModelPipeline (featurizer branches + predictor) over named columns.
  kModelPipeline,
  kClusteredPredict,
  // Linear algebra (LA): an NNRT dataflow graph produced by NN translation.
  kNnGraph,
  // Black-box fallback: an unanalyzable pipeline, kept as stored bytes.
  kOpaquePipeline,
};

const char* IrOpKindToString(IrOpKind kind);
OpCategory CategoryOf(IrOpKind kind);

/// True for single-child, chunk-at-a-time operators the code generator can
/// fuse into one pass per chunk (filters, projections, and the PREDICT
/// family). Every maximal run of such nodes, one node included, executes as
/// one FusedOperator; pipeline breakers (joins, aggregates, sorts) always
/// end a run. A run of two or more is a fused chain. Shared by the runtime
/// (which builds the operator) and the optimizer's EXPLAIN (which annotates
/// the chains) so the two never disagree.
bool IsFusablePipelineKind(IrOpKind kind);

/// Aggregate functions. kAggregate folds the whole input into one row;
/// kGroupBy emits one row per distinct group-key tuple.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc func);

/// One item of a kAggregate / kGroupBy node's output.
struct AggregateItem {
  AggFunc func = AggFunc::kCount;
  std::string column;  // empty for COUNT(*)
  std::string output_name;

  bool operator==(const AggregateItem& other) const {
    return func == other.func && column == other.column &&
           output_name == other.output_name;
  }
};

/// One key of a kOrderBy node: column name plus direction.
struct SortKey {
  std::string column;
  bool descending = false;

  bool operator==(const SortKey& other) const {
    return column == other.column && descending == other.descending;
  }
};

// Binary serialization of the plan payload structs, in the same
// BinaryWriter format as models and the worker wire protocol. The
// plan-shipping path (kExecuteFragment) encodes whole fragments with
// SerializeFragment below; these remain the shared payload encoders.
void WriteAggregateItems(const std::vector<AggregateItem>& items,
                         BinaryWriter* writer);
Result<std::vector<AggregateItem>> ReadAggregateItems(BinaryReader* reader);
void WriteSortKeys(const std::vector<SortKey>& keys, BinaryWriter* writer);
Result<std::vector<SortKey>> ReadSortKeys(BinaryReader* reader);

struct IrNode;
using IrNodePtr = std::unique_ptr<IrNode>;

/// A node of the unified IR plan tree. Payload fields are populated per
/// kind; unused fields stay empty. Plans are trees (sufficient for the
/// query shapes Raven optimizes; the paper's figures are trees too).
struct IrNode {
  IrOpKind kind;
  std::vector<IrNodePtr> children;

  // --- RA payloads ---------------------------------------------------------
  std::string table_name;                       // kTableScan
  relational::ExprPtr predicate;                // kFilter
  std::vector<relational::ExprPtr> proj_exprs;  // kProject
  std::vector<std::string> proj_names;          // kProject
  std::string left_key, right_key;              // kJoin
  std::int64_t limit = 0;                       // kLimit
  std::vector<AggregateItem> aggregates;        // kAggregate, kGroupBy
  std::vector<std::string> group_keys;          // kGroupBy
  std::vector<SortKey> sort_keys;               // kOrderBy

  // --- ML payloads ---------------------------------------------------------
  /// Stored-model name this node came from (for cache keys / EXPLAIN).
  std::string model_name;
  /// Output column the prediction is exposed as.
  std::string output_column;
  /// kModelPipeline: the (possibly optimizer-specialized) pipeline.
  /// Shared and immutable: the analyzer hands every statement the same
  /// copy, and rules that specialize it install a new pipeline.
  std::shared_ptr<const ml::ModelPipeline> pipeline;
  /// kClusteredPredict payload.
  std::shared_ptr<ClusteredModel> clustered;
  /// kNnGraph payload plus the relational columns feeding the graph input.
  std::shared_ptr<nnrt::Graph> nn_graph;
  /// Content hash of nn_graph, computed once when the node is built (or
  /// deserialized) so the per-execution session-cache key never has to
  /// re-serialize the model. 0 only for hand-assembled nodes that bypassed
  /// the factory — consumers fall back to hashing the bytes themselves.
  std::uint64_t nn_graph_fingerprint = 0;
  std::vector<std::string> model_input_columns;
  /// kOpaquePipeline: stored bytes + why analysis failed.
  std::string opaque_bytes;
  std::string opaque_reason;

  explicit IrNode(IrOpKind k) : kind(k) {}

  OpCategory category() const { return CategoryOf(kind); }

  IrNodePtr Clone() const;

  // Factories.
  static IrNodePtr TableScan(std::string table);
  static IrNodePtr Filter(IrNodePtr child, relational::ExprPtr predicate);
  static IrNodePtr Project(IrNodePtr child,
                           std::vector<relational::ExprPtr> exprs,
                           std::vector<std::string> names);
  /// Convenience projection of plain columns.
  static IrNodePtr ProjectColumns(IrNodePtr child,
                                  const std::vector<std::string>& columns);
  static IrNodePtr Join(IrNodePtr left, IrNodePtr right, std::string left_key,
                        std::string right_key);
  static IrNodePtr UnionAll(std::vector<IrNodePtr> children);
  static IrNodePtr Limit(IrNodePtr child, std::int64_t limit);
  static IrNodePtr Aggregate(IrNodePtr child,
                             std::vector<AggregateItem> aggregates);
  /// Grouped aggregation: one output row per distinct `group_keys` tuple,
  /// schema = group keys then aggregate outputs. Rows are emitted in
  /// ascending key order (deterministic across degrees of parallelism).
  /// `aggregates` may be empty: that is SELECT DISTINCT over the keys.
  static IrNodePtr GroupBy(IrNodePtr child, std::vector<std::string> group_keys,
                           std::vector<AggregateItem> aggregates);
  /// Total sort of the child's rows (stable, so equal-key rows keep the
  /// child's sequential order); schema passes through.
  static IrNodePtr OrderBy(IrNodePtr child, std::vector<SortKey> sort_keys);
  static IrNodePtr ModelPipelineNode(IrNodePtr child, std::string model_name,
                                     std::shared_ptr<const ml::ModelPipeline> model,
                                     std::vector<std::string> input_columns,
                                     std::string output_column);
  static IrNodePtr ClusteredPredict(IrNodePtr child, std::string model_name,
                                    std::shared_ptr<ClusteredModel> model,
                                    std::vector<std::string> input_columns,
                                    std::string output_column);
  static IrNodePtr NnGraph(IrNodePtr child, std::string model_name,
                           std::shared_ptr<nnrt::Graph> graph,
                           std::vector<std::string> input_columns,
                           std::string output_column);
  static IrNodePtr OpaquePipeline(IrNodePtr child, std::string model_name,
                                  std::string bytes, std::string reason,
                                  std::vector<std::string> input_columns,
                                  std::string output_column);
};

/// A full inference-query plan: the IR tree plus bookkeeping the optimizer
/// and tests use.
class IrPlan {
 public:
  IrPlan() = default;
  explicit IrPlan(IrNodePtr root) : root_(std::move(root)) {}

  IrNode* root() { return root_.get(); }
  const IrNode* root() const { return root_.get(); }
  IrNodePtr& mutable_root() { return root_; }

  IrPlan Clone() const;

  /// Output column names of `node` given the catalog's table schemas.
  static Result<std::vector<std::string>> ComputeSchema(
      const IrNode& node, const relational::Catalog& catalog);

  /// Structural validation: children counts, schema resolvability, model
  /// input columns present in child schema.
  Status Validate(const relational::Catalog& catalog) const;

  /// Indented tree dump (EXPLAIN).
  std::string ToString() const;

  /// Number of nodes of the given kind anywhere in the plan.
  std::size_t CountKind(IrOpKind kind) const;

 private:
  IrNodePtr root_;
};

/// Applies `fn` to every node (pre-order); fn may mutate payloads.
void VisitIr(IrNode* node, const std::function<void(IrNode*)>& fn);
void VisitIr(const IrNode* node,
             const std::function<void(const IrNode*)>& fn);

// -- Plan-fragment wire serialization ---------------------------------------
//
// Whole plan subtrees encode to the common BinaryWriter format (versioned,
// depth-limited on decode) so the engine can ship fragments to persistent
// pool workers over the kExecuteFragment protocol command. Model payloads
// travel as their existing serialized forms (ModelPipeline / nnrt::Graph
// bytes). Two kinds cannot ship and serialize to an error:
// kClusteredPredict (clustering artifacts live in the optimizer process)
// and kOpaquePipeline (it must score through its own external runtime).

Status SerializeFragment(const IrNode& node, BinaryWriter* writer);
Result<IrNodePtr> DeserializeFragment(BinaryReader* reader);

/// True iff the subtree rooted at `node` consists solely of row-wise
/// operators (filter / project / pipeline / NN-graph scoring) over a single
/// table scan — the unit the distributed executor ships to workers, because
/// partitioning the scan's rows and concatenating the partition outputs in
/// range order is byte-identical to running the subtree over the whole
/// table.
bool IsDistributableFragment(const IrNode& node);

/// Collects the maximal distributable subtrees of the plan, in the
/// deterministic preorder the distributed executor (and its cost-model
/// mirror) both rely on.
void CollectDistributableFragments(const IrNode& root,
                                   std::vector<const IrNode*>* out);

// -- Plan identity & prepared-statement parameters --------------------------

/// Structural 64-bit fingerprint of the subtree (FNV-1a over a canonical
/// preorder encoding of kinds and payloads; model payloads hash by stored
/// name, so two plans over the same stored model fingerprint equal even
/// when the optimizer specialized their in-memory pipelines differently).
/// The query server's plan cache uses this to report distinct-plan counts
/// and tests use it to assert cached-plan identity.
std::uint64_t PlanFingerprint(const IrNode& node);

/// Number of `?` placeholders the plan's expressions reference (max index
/// + 1; 0 for a plan without parameters).
std::int64_t PlanParamCount(const IrNode& node);

/// Deep clone with every ParamExpr replaced by its literal value from
/// `values` (EXECUTE's bind step). Fails when the plan references an index
/// outside `values`; fails-fast rather than executing with unbound
/// placeholders.
Result<IrNodePtr> BindPlanParameters(const IrNode& node,
                                     const std::vector<double>& values);

}  // namespace raven::ir

#endif  // RAVEN_IR_IR_H_
