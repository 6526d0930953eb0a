#include "optimizer/rules.h"

#include <cmath>
#include <functional>
#include <optional>
#include <set>

#include "optimizer/specialize.h"
#include "relational/block_table.h"
#include "relational/statistics.h"

namespace raven::optimizer {
namespace {

using ir::IrNode;
using ir::IrNodePtr;
using ir::IrOpKind;
using ir::IrPlan;
using relational::Expr;
using relational::ExprPtr;

Result<std::set<std::string>> SchemaSet(const IrNode& node,
                                        const relational::Catalog& catalog) {
  RAVEN_ASSIGN_OR_RETURN(auto schema, IrPlan::ComputeSchema(node, catalog));
  return std::set<std::string>(schema.begin(), schema.end());
}

bool Covers(const std::set<std::string>& available, const Expr& expr) {
  std::set<std::string> used;
  expr.CollectColumns(&used);
  for (const auto& col : used) {
    if (available.find(col) == available.end()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Predicate pushdown.
// ---------------------------------------------------------------------------

/// Tries to sink a single conjunct into `node`; returns true on success (the
/// conjunct is then owned by the subtree).
Result<bool> SinkConjunct(IrNodePtr* node, ExprPtr conjunct,
                          const relational::Catalog& catalog,
                          std::size_t* fired) {
  IrNode& n = **node;
  switch (n.kind) {
    case IrOpKind::kFilter: {
      // Merge and keep trying below.
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk, SinkConjunct(&n.children[0], conjunct->Clone(), catalog,
                                  fired));
      if (!sunk) {
        n.predicate = relational::And(std::move(n.predicate),
                                      std::move(conjunct));
      }
      return true;
    }
    case IrOpKind::kJoin: {
      RAVEN_ASSIGN_OR_RETURN(auto left, SchemaSet(*n.children[0], catalog));
      if (Covers(left, *conjunct)) {
        RAVEN_ASSIGN_OR_RETURN(
            bool sunk,
            SinkConjunct(&n.children[0], conjunct->Clone(), catalog, fired));
        if (!sunk) {
          n.children[0] = IrNode::Filter(std::move(n.children[0]),
                                         std::move(conjunct));
          ++*fired;
        }
        return true;
      }
      RAVEN_ASSIGN_OR_RETURN(auto right, SchemaSet(*n.children[1], catalog));
      if (Covers(right, *conjunct)) {
        RAVEN_ASSIGN_OR_RETURN(
            bool sunk,
            SinkConjunct(&n.children[1], conjunct->Clone(), catalog, fired));
        if (!sunk) {
          n.children[1] = IrNode::Filter(std::move(n.children[1]),
                                         std::move(conjunct));
          ++*fired;
        }
        return true;
      }
      return false;
    }
    case IrOpKind::kGroupBy: {
      // HAVING → WHERE pull-up: a conjunct reading only group-key columns
      // holds for every row of a group iff it holds for the group, so it
      // can filter before aggregation. Conjuncts touching aggregate outputs
      // must stay above.
      std::set<std::string> used;
      conjunct->CollectColumns(&used);
      const std::set<std::string> keys(n.group_keys.begin(),
                                       n.group_keys.end());
      for (const auto& col : used) {
        if (keys.count(col) == 0) return false;
      }
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk,
          SinkConjunct(&n.children[0], conjunct->Clone(), catalog, fired));
      if (!sunk) {
        n.children[0] =
            IrNode::Filter(std::move(n.children[0]), std::move(conjunct));
      }
      ++*fired;
      return true;
    }
    case IrOpKind::kOrderBy: {
      // Filtering commutes with sorting (the sort is stable and 1:1), and
      // filtering first is strictly cheaper.
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk,
          SinkConjunct(&n.children[0], conjunct->Clone(), catalog, fired));
      if (!sunk) {
        n.children[0] =
            IrNode::Filter(std::move(n.children[0]), std::move(conjunct));
      }
      ++*fired;
      return true;
    }
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline: {
      // Push below the model if the conjunct doesn't read the prediction.
      std::set<std::string> used;
      conjunct->CollectColumns(&used);
      if (used.count(n.output_column) > 0) return false;
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk,
          SinkConjunct(&n.children[0], conjunct->Clone(), catalog, fired));
      if (!sunk) {
        n.children[0] =
            IrNode::Filter(std::move(n.children[0]), std::move(conjunct));
        ++*fired;
      } else {
        ++*fired;
      }
      return true;
    }
    case IrOpKind::kProject: {
      // Push through only if every used column is a pure pass-through.
      std::set<std::string> used;
      conjunct->CollectColumns(&used);
      for (const auto& col : used) {
        bool pass_through = false;
        for (std::size_t i = 0; i < n.proj_names.size(); ++i) {
          if (n.proj_names[i] == col &&
              n.proj_exprs[i]->kind() == Expr::Kind::kColumnRef &&
              static_cast<const relational::ColumnRefExpr&>(*n.proj_exprs[i])
                      .name() == col) {
            pass_through = true;
            break;
          }
        }
        if (!pass_through) return false;
      }
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk,
          SinkConjunct(&n.children[0], conjunct->Clone(), catalog, fired));
      if (!sunk) {
        n.children[0] =
            IrNode::Filter(std::move(n.children[0]), std::move(conjunct));
        ++*fired;
      } else {
        ++*fired;
      }
      return true;
    }
    default:
      return false;
  }
}

Result<std::size_t> PushdownWalk(IrNodePtr* node,
                                 const relational::Catalog& catalog) {
  std::size_t fired = 0;
  IrNode& n = **node;
  if (n.kind == IrOpKind::kFilter) {
    // Split the predicate and try to sink each conjunct.
    const auto conjuncts = relational::ExtractConjuncts(*n.predicate);
    std::vector<ExprPtr> kept;
    for (const Expr* conjunct : conjuncts) {
      RAVEN_ASSIGN_OR_RETURN(
          bool sunk,
          SinkConjunct(&n.children[0], conjunct->Clone(), catalog, &fired));
      if (!sunk) kept.push_back(conjunct->Clone());
    }
    if (kept.empty()) {
      // Filter fully absorbed below; splice it out.
      IrNodePtr child = std::move(n.children[0]);
      *node = std::move(child);
      RAVEN_ASSIGN_OR_RETURN(std::size_t sub, PushdownWalk(node, catalog));
      return fired + sub;
    }
    std::vector<const Expr*> kept_raw;
    kept_raw.reserve(kept.size());
    for (const auto& e : kept) kept_raw.push_back(e.get());
    n.predicate = relational::ConjoinClones(kept_raw);
  }
  for (auto& child : n.children) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t sub, PushdownWalk(&child, catalog));
    fired += sub;
  }
  return fired;
}

// ---------------------------------------------------------------------------
// Predicate collection for model pruning.
// ---------------------------------------------------------------------------

void CollectPredicatesBelow(const IrNode& node,
                            std::vector<relational::SimplePredicate>* out) {
  if (node.kind == IrOpKind::kUnionAll) return;  // branch-local predicates
  // Aggregation renames/folds columns, so predicates below it do not
  // constrain the values it emits (conservatively including group keys).
  if (node.kind == IrOpKind::kAggregate ||
      node.kind == IrOpKind::kGroupBy) {
    return;
  }
  if (node.kind == IrOpKind::kFilter) {
    for (const Expr* conjunct : relational::ExtractConjuncts(*node.predicate)) {
      auto simple = relational::MatchSimplePredicate(*conjunct);
      if (simple.has_value()) out->push_back(*simple);
    }
  }
  for (const auto& child : node.children) {
    CollectPredicatesBelow(*child, out);
  }
}

// ---------------------------------------------------------------------------
// Required-column analysis (projection pushdown + join elimination).
// ---------------------------------------------------------------------------

using Required = std::optional<std::set<std::string>>;  // nullopt = all

void AddExprColumns(const Expr& expr, std::set<std::string>* out) {
  expr.CollectColumns(out);
}

/// True when every item of Project `n` is a plain reference to a column of
/// the same name (a column selection, no computation or renaming).
bool IsColumnSelection(const IrNode& n) {
  for (std::size_t i = 0; i < n.proj_exprs.size(); ++i) {
    const Expr& e = *n.proj_exprs[i];
    if (e.kind() != Expr::Kind::kColumnRef ||
        static_cast<const relational::ColumnRefExpr&>(e).name() !=
            n.proj_names[i]) {
      return false;
    }
  }
  return true;
}

/// Narrows subtree `node` to produce at least `required` columns; returns
/// rewrites fired. Every projection drops the items nobody above requires
/// (computed ones too), a projection left selecting exactly its child's
/// columns goes away, and a scan whose columns are not all required gets
/// a column selection on top, unless a column selection already reads it
/// (directly or through filters). When `eliminate_joins` is set, joins
/// whose non-key side is unused are collapsed.
Result<std::size_t> RequireWalk(IrNodePtr* node, const Required& required,
                                const relational::Catalog& catalog,
                                bool eliminate_joins) {
  IrNode& n = **node;
  switch (n.kind) {
    case IrOpKind::kTableScan: {
      if (!required.has_value()) return std::size_t{0};
      RAVEN_ASSIGN_OR_RETURN(const std::vector<std::string> columns,
                             catalog.TableSchema(n.table_name));
      std::vector<std::string> keep;
      for (const auto& col : columns) {
        if (required->count(col) > 0) keep.push_back(col);
      }
      if (keep.size() == columns.size()) {
        return std::size_t{0};
      }
      if (keep.empty() && !columns.empty()) {
        keep.push_back(columns.front());  // keep arity >= 1
      }
      *node = IrNode::ProjectColumns(std::move(*node), keep);
      return std::size_t{1};
    }
    case IrOpKind::kProject: {
      std::size_t fired = 0;
      // Drop every item nobody above reads, computed items included (an
      // inlined model's CASE over columns the query never returns keeps
      // those columns alive otherwise), but keep at least one so the row
      // count survives; a plain column is the cheapest one to keep. The
      // kept expressions move: cloning an inlined forest per pass costs
      // more than the rest of the walk.
      if (required.has_value()) {
        std::vector<std::size_t> keep;
        for (std::size_t i = 0; i < n.proj_names.size(); ++i) {
          if (required->count(n.proj_names[i]) > 0) keep.push_back(i);
        }
        if (keep.empty() && !n.proj_names.empty()) {
          std::size_t cheapest = 0;
          for (std::size_t i = 0; i < n.proj_exprs.size(); ++i) {
            if (n.proj_exprs[i]->kind() == Expr::Kind::kColumnRef) {
              cheapest = i;
              break;
            }
          }
          keep.push_back(cheapest);
        }
        if (keep.size() < n.proj_names.size()) {
          std::vector<ExprPtr> exprs;
          std::vector<std::string> names;
          for (std::size_t i : keep) {
            exprs.push_back(std::move(n.proj_exprs[i]));
            names.push_back(std::move(n.proj_names[i]));
          }
          n.proj_exprs = std::move(exprs);
          n.proj_names = std::move(names);
          ++fired;
        }
      }
      if (IsColumnSelection(n)) {
        // A selection of exactly its child's columns, in order, passes
        // every chunk through unchanged (an inlined model's CASE
        // projection, or a GroupBy, under the query's select list):
        // drop it.
        RAVEN_ASSIGN_OR_RETURN(
            const std::vector<std::string> child_columns,
            IrPlan::ComputeSchema(*n.children[0], catalog));
        if (child_columns == n.proj_names) {
          IrNodePtr child = std::move(n.children[0]);
          *node = std::move(child);
          RAVEN_ASSIGN_OR_RETURN(
              std::size_t sub,
              RequireWalk(node, required, catalog, eliminate_joins));
          return fired + 1 + sub;
        }
        // A column selection over a scan (through filters only) already is
        // that scan's narrowing: execution reads just the selected and
        // filtered columns. Wrapping the scan as well would stack a second
        // selection of the same columns once the final predicate pushdown
        // sinks the filters under it.
        const IrNode* below = n.children[0].get();
        while (below->kind == IrOpKind::kFilter) {
          below = below->children[0].get();
        }
        if (below->kind == IrOpKind::kTableScan) return fired;
      }
      std::set<std::string> child_req;
      for (const auto& e : n.proj_exprs) AddExprColumns(*e, &child_req);
      RAVEN_ASSIGN_OR_RETURN(
          std::size_t sub,
          RequireWalk(&n.children[0], Required(std::move(child_req)), catalog,
                      eliminate_joins));
      return fired + sub;
    }
    case IrOpKind::kFilter: {
      Required child_req = required;
      if (child_req.has_value()) {
        AddExprColumns(*n.predicate, &*child_req);
      }
      return RequireWalk(&n.children[0], child_req, catalog, eliminate_joins);
    }
    case IrOpKind::kLimit:
      return RequireWalk(&n.children[0], required, catalog, eliminate_joins);
    case IrOpKind::kAggregate: {
      // Only the aggregated columns are needed below, whatever is required
      // above (the aggregate's outputs are computed, not passed through).
      // Join elimination must NOT fire here: COUNT/SUM care about the row
      // multiset, and dropping a join that filters or multiplies rows
      // (non-1:1 build side) would change the aggregate even though no
      // build-side column is referenced.
      std::set<std::string> child_req;
      for (const auto& agg : n.aggregates) {
        if (!agg.column.empty()) child_req.insert(agg.column);
      }
      return RequireWalk(&n.children[0], Required(std::move(child_req)),
                         catalog, /*eliminate_joins=*/false);
    }
    case IrOpKind::kGroupBy: {
      // The grouped subtree needs exactly the group keys plus the
      // aggregated columns — this is the projection-pushdown win for wide
      // PREDICT inputs. Join elimination stays off below for the same
      // row-multiset reason as kAggregate.
      std::set<std::string> child_req(n.group_keys.begin(),
                                      n.group_keys.end());
      for (const auto& agg : n.aggregates) {
        if (!agg.column.empty()) child_req.insert(agg.column);
      }
      return RequireWalk(&n.children[0], Required(std::move(child_req)),
                         catalog, /*eliminate_joins=*/false);
    }
    case IrOpKind::kOrderBy: {
      // Sorting passes rows through 1:1; the child must additionally
      // produce the sort columns.
      Required child_req = required;
      if (child_req.has_value()) {
        for (const auto& key : n.sort_keys) child_req->insert(key.column);
      }
      return RequireWalk(&n.children[0], child_req, catalog, eliminate_joins);
    }
    case IrOpKind::kJoin: {
      std::size_t fired = 0;
      RAVEN_ASSIGN_OR_RETURN(auto left_schema,
                             IrPlan::ComputeSchema(*n.children[0], catalog));
      RAVEN_ASSIGN_OR_RETURN(auto right_schema,
                             IrPlan::ComputeSchema(*n.children[1], catalog));
      const std::set<std::string> left_set(left_schema.begin(),
                                           left_schema.end());
      if (eliminate_joins && required.has_value()) {
        // Columns only the right side provides.
        bool right_needed = false;
        for (const auto& col : *required) {
          if (left_set.count(col) == 0) {
            // Is it actually provided by the right side?
            for (const auto& r : right_schema) {
              if (r == col) {
                right_needed = true;
                break;
              }
            }
          }
          if (right_needed) break;
        }
        if (!right_needed) {
          // Inner equi-join on a key with FK integrity: dropping the build
          // side preserves rows. (Datasets are 1:1 on ids by construction.)
          IrNodePtr left = std::move(n.children[0]);
          *node = std::move(left);
          RAVEN_ASSIGN_OR_RETURN(
              std::size_t sub,
              RequireWalk(node, required, catalog, eliminate_joins));
          return 1 + sub;
        }
      }
      Required left_req;
      Required right_req;
      if (required.has_value()) {
        left_req = std::set<std::string>{};
        right_req = std::set<std::string>{};
        for (const auto& col : *required) {
          if (left_set.count(col) > 0) {
            left_req->insert(col);
          } else {
            right_req->insert(col);
          }
        }
        left_req->insert(n.left_key);
        right_req->insert(n.right_key);
      }
      RAVEN_ASSIGN_OR_RETURN(
          std::size_t l,
          RequireWalk(&n.children[0], left_req, catalog, eliminate_joins));
      RAVEN_ASSIGN_OR_RETURN(
          std::size_t r,
          RequireWalk(&n.children[1], right_req, catalog, eliminate_joins));
      return fired + l + r;
    }
    case IrOpKind::kUnionAll: {
      std::size_t fired = 0;
      for (auto& child : n.children) {
        RAVEN_ASSIGN_OR_RETURN(
            std::size_t sub,
            RequireWalk(&child, required, catalog, eliminate_joins));
        fired += sub;
      }
      return fired;
    }
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline: {
      Required child_req;
      if (required.has_value()) {
        child_req = std::set<std::string>{};
        for (const auto& col : *required) {
          if (col != n.output_column) child_req->insert(col);
        }
        for (const auto& col : n.model_input_columns) {
          child_req->insert(col);
        }
      }
      return RequireWalk(&n.children[0], child_req, catalog, eliminate_joins);
    }
  }
  return Status::Internal("unreachable IR kind in RequireWalk");
}

}  // namespace

Result<std::size_t> ApplyPredicatePushdown(IrNodePtr* root,
                                           const relational::Catalog& catalog) {
  std::size_t total = 0;
  for (int pass = 0; pass < 8; ++pass) {
    RAVEN_ASSIGN_OR_RETURN(std::size_t fired, PushdownWalk(root, catalog));
    total += fired;
    if (fired == 0) break;
  }
  return total;
}

Result<std::size_t> ApplyPredicateModelPruning(IrNodePtr* root) {
  std::size_t fired = 0;
  Status status = Status::OK();
  ir::VisitIr(root->get(), [&](IrNode* node) {
    if (!status.ok() || node->kind != IrOpKind::kModelPipeline) return;
    std::vector<relational::SimplePredicate> predicates;
    CollectPredicatesBelow(*node->children[0], &predicates);
    if (predicates.empty()) return;
    auto result = PruneWithPredicates(*node->pipeline, predicates);
    if (!result.ok()) {
      status = result.status();
      return;
    }
    if (!result->changed) return;
    node->pipeline =
        std::make_shared<ml::ModelPipeline>(std::move(result->pipeline));
    node->model_input_columns = result->kept_inputs;
    ++fired;
  });
  RAVEN_RETURN_IF_ERROR(status);
  return fired;
}

Result<std::size_t> ApplyModelProjectionPushdown(IrNodePtr* root) {
  std::size_t fired = 0;
  Status status = Status::OK();
  ir::VisitIr(root->get(), [&](IrNode* node) {
    if (!status.ok() || node->kind != IrOpKind::kModelPipeline) return;
    auto result = ProjectUnusedFeatures(*node->pipeline);
    if (!result.ok()) {
      status = result.status();
      return;
    }
    if (!result->changed) return;
    node->pipeline =
        std::make_shared<ml::ModelPipeline>(std::move(result->pipeline));
    node->model_input_columns = result->kept_inputs;
    ++fired;
  });
  RAVEN_RETURN_IF_ERROR(status);
  return fired;
}

Result<std::size_t> ApplyProjectionPushdown(IrNodePtr* root,
                                            const relational::Catalog& catalog) {
  return RequireWalk(root, std::nullopt, catalog, /*eliminate_joins=*/false);
}

Result<std::size_t> ApplyJoinElimination(IrNodePtr* root,
                                         const relational::Catalog& catalog) {
  return RequireWalk(root, std::nullopt, catalog, /*eliminate_joins=*/true);
}

Result<std::size_t> ApplyModelInlining(IrNodePtr* root,
                                       const relational::Catalog& catalog,
                                       std::int64_t max_nodes) {
  // Post-order so child schemas are final before we read them.
  std::size_t fired = 0;
  std::vector<IrNodePtr*> model_nodes;
  std::function<void(IrNodePtr*)> collect = [&](IrNodePtr* node) {
    for (auto& child : (*node)->children) collect(&child);
    if ((*node)->kind == IrOpKind::kModelPipeline) {
      model_nodes.push_back(node);
    }
  };
  collect(root);
  for (IrNodePtr* slot : model_nodes) {
    IrNode& node = **slot;
    if (!IsInlinable(*node.pipeline, max_nodes)) continue;
    RAVEN_ASSIGN_OR_RETURN(ExprPtr case_expr, TreeToCaseExpr(*node.pipeline));
    RAVEN_ASSIGN_OR_RETURN(auto child_schema,
                           IrPlan::ComputeSchema(*node.children[0], catalog));
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const auto& col : child_schema) {
      exprs.push_back(relational::Col(col));
      names.push_back(col);
    }
    exprs.push_back(std::move(case_expr));
    names.push_back(node.output_column);
    *slot = IrNode::Project(std::move(node.children[0]), std::move(exprs),
                            std::move(names));
    ++fired;
  }
  return fired;
}

Result<std::size_t> ApplyNnTranslation(IrNodePtr* root,
                                       const NnTranslationOptions& options) {
  std::size_t fired = 0;
  std::vector<IrNodePtr*> model_nodes;
  std::function<void(IrNodePtr*)> collect = [&](IrNodePtr* node) {
    for (auto& child : (*node)->children) collect(&child);
    if ((*node)->kind == IrOpKind::kModelPipeline) {
      model_nodes.push_back(node);
    }
  };
  collect(root);
  for (IrNodePtr* slot : model_nodes) {
    IrNode& node = **slot;
    RAVEN_ASSIGN_OR_RETURN(nnrt::Graph graph,
                           PipelineToNnGraph(*node.pipeline, options));
    *slot = IrNode::NnGraph(std::move(node.children[0]), node.model_name,
                            std::make_shared<nnrt::Graph>(std::move(graph)),
                            node.model_input_columns, node.output_column);
    ++fired;
  }
  return fired;
}

Result<std::size_t> ApplyModelClustering(
    IrNodePtr* root,
    const std::map<std::string, std::shared_ptr<ir::ClusteredModel>>&
        artifacts) {
  std::size_t fired = 0;
  std::vector<IrNodePtr*> model_nodes;
  std::function<void(IrNodePtr*)> collect = [&](IrNodePtr* node) {
    for (auto& child : (*node)->children) collect(&child);
    if ((*node)->kind == IrOpKind::kModelPipeline) {
      model_nodes.push_back(node);
    }
  };
  collect(root);
  for (IrNodePtr* slot : model_nodes) {
    IrNode& node = **slot;
    auto it = artifacts.find(node.model_name);
    if (it == artifacts.end()) continue;
    *slot = IrNode::ClusteredPredict(std::move(node.children[0]),
                                     node.model_name, it->second,
                                     node.model_input_columns,
                                     node.output_column);
    ++fired;
  }
  return fired;
}

Result<std::size_t> ApplyModelQuerySplitting(IrNodePtr* root) {
  std::size_t fired = 0;
  std::vector<IrNodePtr*> model_nodes;
  std::function<void(IrNodePtr*)> collect = [&](IrNodePtr* node) {
    for (auto& child : (*node)->children) collect(&child);
    if ((*node)->kind == IrOpKind::kModelPipeline) {
      model_nodes.push_back(node);
    }
  };
  collect(root);
  for (IrNodePtr* slot : model_nodes) {
    IrNode& node = **slot;
    if (ml::KindOf(node.pipeline->predictor) !=
        ml::PredictorKind::kDecisionTree) {
      continue;
    }
    const auto& tree = std::get<ml::DecisionTree>(node.pipeline->predictor);
    const std::size_t root_slot = static_cast<std::size_t>(tree.root());
    if (tree.feature().empty() || tree.feature()[root_slot] < 0) continue;
    // Map the root feature to a raw column test; one-hot roots are skipped
    // (their split predicates are equality on indicators, already covered
    // by predicate-based pruning).
    const auto prov = node.pipeline->featurizer.branches().empty()
                          ? std::vector<ml::FeatureProvenance>{}
                          : node.pipeline->featurizer.Provenance();
    const std::int64_t f = tree.feature()[root_slot];
    std::string column;
    float mean = 0.0f;
    float scale = 1.0f;
    if (prov.empty()) {
      column = node.pipeline->input_columns[static_cast<std::size_t>(f)];
    } else {
      const auto& p = prov[static_cast<std::size_t>(f)];
      if (p.kind == ml::TransformKind::kOneHot) continue;
      column = node.pipeline
                   ->input_columns[static_cast<std::size_t>(p.input_column)];
      if (p.kind == ml::TransformKind::kScaler) {
        const auto& branch =
            node.pipeline->featurizer
                .branches()[static_cast<std::size_t>(p.branch_index)];
        for (std::size_t c = 0; c < branch.input_columns.size(); ++c) {
          if (branch.input_columns[c] == p.input_column) {
            mean = static_cast<float>(branch.scaler.mean()[c]);
            scale = static_cast<float>(branch.scaler.scale()[c]);
            break;
          }
        }
        if (!(scale > 0.0f) || !std::isfinite(scale) || !std::isfinite(mean)) {
          continue;
        }
      }
    }
    // The exact raw-space bound of the float32 split, as the inliner uses:
    // a row that ties the split after featurization takes the model's
    // branch. No bound means no row goes left: nothing to split.
    const std::optional<double> bound =
        RawThreshold(tree.threshold()[root_slot], mean, scale);
    if (!bound.has_value()) continue;
    const double threshold = *bound;
    // Build the two specialized (filter, model) branches.
    RAVEN_ASSIGN_OR_RETURN(
        auto left_spec,
        PruneWithPredicates(*node.pipeline,
                            {relational::SimplePredicate{
                                column, relational::CompareOp::kLe,
                                threshold}}));
    RAVEN_ASSIGN_OR_RETURN(
        auto right_spec,
        PruneWithPredicates(*node.pipeline,
                            {relational::SimplePredicate{
                                column, relational::CompareOp::kGt,
                                threshold}}));
    IrNodePtr left_branch = IrNode::ModelPipelineNode(
        IrNode::Filter(node.children[0]->Clone(),
                       relational::Le(relational::Col(column),
                                      relational::Lit(threshold))),
        node.model_name,
        std::make_shared<ml::ModelPipeline>(std::move(left_spec.pipeline)),
        left_spec.kept_inputs, node.output_column);
    // NOT (x <= b) rather than x > b: a NaN row fails every split test and
    // takes the right branch, so it must land here, not vanish.
    IrNodePtr right_branch = IrNode::ModelPipelineNode(
        IrNode::Filter(std::move(node.children[0]),
                       relational::Not(relational::Le(
                           relational::Col(column),
                           relational::Lit(threshold)))),
        node.model_name,
        std::make_shared<ml::ModelPipeline>(std::move(right_spec.pipeline)),
        right_spec.kept_inputs, node.output_column);
    // UNION ALL branch schemas must agree: project both to child schema +
    // prediction. They already emit the same pass-through columns.
    std::vector<IrNodePtr> branches;
    branches.push_back(std::move(left_branch));
    branches.push_back(std::move(right_branch));
    *slot = IrNode::UnionAll(std::move(branches));
    ++fired;
  }
  return fired;
}

Result<std::size_t> ApplyDataPropertyPruning(
    IrNodePtr* root, const relational::Catalog& catalog) {
  // Gather statistics for every base table referenced by the plan, once.
  std::map<std::string, relational::ColumnStats> stats;
  Status status = Status::OK();
  ir::VisitIr(root->get(), [&](IrNode* node) {
    if (!status.ok() || node->kind != IrOpKind::kTableScan) return;
    std::map<std::string, relational::ColumnStats> table_stats;
    auto table = catalog.GetTable(node->table_name);
    if (table.ok()) {
      table_stats = relational::ComputeTableStats(**table);
    } else {
      // On-disk tables: merge the per-block zone maps instead of scanning
      // the data (the whole point of keeping stats in the .rvc meta).
      auto disk = catalog.GetDiskTable(node->table_name);
      if (!disk.ok()) {
        status = table.status();
        return;
      }
      table_stats = relational::MergedStats(**disk);
    }
    for (auto& [name, column_stats] : table_stats) {
      stats[name] = column_stats;
    }
  });
  RAVEN_RETURN_IF_ERROR(status);

  std::size_t fired = 0;
  ir::VisitIr(root->get(), [&](IrNode* node) {
    if (!status.ok() || node->kind != IrOpKind::kModelPipeline) return;
    std::vector<relational::SimplePredicate> predicates;
    for (const auto& column : node->model_input_columns) {
      auto it = stats.find(column);
      if (it == stats.end()) continue;
      // A NaN/±inf row sits outside the finite min/max, so any range (or
      // equality) predicate derived from it would mis-describe that row
      // and specialize the model against data it will actually see.
      if (it->second.has_non_finite || !it->second.has_finite()) continue;
      if (it->second.constant.has_value()) {
        predicates.push_back(relational::SimplePredicate{
            column, relational::CompareOp::kEq, *it->second.constant});
      } else {
        predicates.push_back(relational::SimplePredicate{
            column, relational::CompareOp::kGe, it->second.min});
        predicates.push_back(relational::SimplePredicate{
            column, relational::CompareOp::kLe, it->second.max});
      }
    }
    if (predicates.empty()) return;
    auto result = PruneWithPredicates(*node->pipeline, predicates);
    if (!result.ok()) {
      status = result.status();
      return;
    }
    if (!result->changed) return;
    node->pipeline =
        std::make_shared<ml::ModelPipeline>(std::move(result->pipeline));
    node->model_input_columns = result->kept_inputs;
    ++fired;
  });
  RAVEN_RETURN_IF_ERROR(status);
  return fired;
}

Result<std::size_t> ApplyLossyProjection(IrNodePtr* root,
                                         double weight_threshold) {
  if (weight_threshold <= 0.0) return std::size_t{0};
  std::size_t fired = 0;
  Status status = Status::OK();
  ir::VisitIr(root->get(), [&](IrNode* node) {
    if (!status.ok() || node->kind != IrOpKind::kModelPipeline) return;
    auto* linear = std::get_if<ml::LinearModel>(&node->pipeline->predictor);
    if (linear == nullptr) return;
    // Copy-on-write: threshold a copy, then run the exact projection.
    ml::ModelPipeline thresholded = *node->pipeline;
    auto& model = std::get<ml::LinearModel>(thresholded.predictor);
    if (model.ThresholdWeights(weight_threshold) == 0) return;
    auto result = ProjectUnusedFeatures(thresholded);
    if (!result.ok()) {
      status = result.status();
      return;
    }
    node->pipeline =
        std::make_shared<ml::ModelPipeline>(std::move(result->pipeline));
    node->model_input_columns = result->kept_inputs;
    ++fired;
  });
  RAVEN_RETURN_IF_ERROR(status);
  return fired;
}

}  // namespace raven::optimizer
