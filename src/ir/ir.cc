#include "ir/ir.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "nnrt/artifact_cache.h"

namespace raven::ir {

const char* OpCategoryToString(OpCategory category) {
  switch (category) {
    case OpCategory::kRelational:
      return "RA";
    case OpCategory::kLinearAlgebra:
      return "LA";
    case OpCategory::kClassicalMl:
      return "MLD";
    case OpCategory::kUdf:
      return "UDF";
  }
  return "?";
}

void WriteAggregateItems(const std::vector<AggregateItem>& items,
                         BinaryWriter* writer) {
  writer->WriteU64(items.size());
  for (const auto& item : items) {
    writer->WriteU8(static_cast<std::uint8_t>(item.func));
    writer->WriteString(item.column);
    writer->WriteString(item.output_name);
  }
}

Result<std::vector<AggregateItem>> ReadAggregateItems(BinaryReader* reader) {
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t n, reader->ReadU64());
  if (n > reader->remaining()) {
    return Status::ParseError("implausible aggregate-item count");
  }
  std::vector<AggregateItem> items;
  items.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    AggregateItem item;
    RAVEN_ASSIGN_OR_RETURN(std::uint8_t func, reader->ReadU8());
    if (func > static_cast<std::uint8_t>(AggFunc::kMax)) {
      return Status::ParseError("unknown aggregate function code " +
                                std::to_string(func));
    }
    item.func = static_cast<AggFunc>(func);
    RAVEN_ASSIGN_OR_RETURN(item.column, reader->ReadString());
    RAVEN_ASSIGN_OR_RETURN(item.output_name, reader->ReadString());
    items.push_back(std::move(item));
  }
  return items;
}

void WriteSortKeys(const std::vector<SortKey>& keys, BinaryWriter* writer) {
  writer->WriteU64(keys.size());
  for (const auto& key : keys) {
    writer->WriteString(key.column);
    writer->WriteBool(key.descending);
  }
}

Result<std::vector<SortKey>> ReadSortKeys(BinaryReader* reader) {
  RAVEN_ASSIGN_OR_RETURN(std::uint64_t n, reader->ReadU64());
  if (n > reader->remaining()) {
    return Status::ParseError("implausible sort-key count");
  }
  std::vector<SortKey> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    SortKey key;
    RAVEN_ASSIGN_OR_RETURN(key.column, reader->ReadString());
    RAVEN_ASSIGN_OR_RETURN(key.descending, reader->ReadBool());
    keys.push_back(std::move(key));
  }
  return keys;
}

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

const char* IrOpKindToString(IrOpKind kind) {
  switch (kind) {
    case IrOpKind::kTableScan:
      return "TableScan";
    case IrOpKind::kFilter:
      return "Filter";
    case IrOpKind::kProject:
      return "Project";
    case IrOpKind::kJoin:
      return "Join";
    case IrOpKind::kUnionAll:
      return "UnionAll";
    case IrOpKind::kLimit:
      return "Limit";
    case IrOpKind::kAggregate:
      return "Aggregate";
    case IrOpKind::kGroupBy:
      return "GroupBy";
    case IrOpKind::kOrderBy:
      return "OrderBy";
    case IrOpKind::kModelPipeline:
      return "ModelPipeline";
    case IrOpKind::kClusteredPredict:
      return "ClusteredPredict";
    case IrOpKind::kNnGraph:
      return "NnGraph";
    case IrOpKind::kOpaquePipeline:
      return "OpaquePipeline";
  }
  return "?";
}

OpCategory CategoryOf(IrOpKind kind) {
  switch (kind) {
    case IrOpKind::kTableScan:
    case IrOpKind::kFilter:
    case IrOpKind::kProject:
    case IrOpKind::kJoin:
    case IrOpKind::kUnionAll:
    case IrOpKind::kLimit:
    case IrOpKind::kAggregate:
    case IrOpKind::kGroupBy:
    case IrOpKind::kOrderBy:
      return OpCategory::kRelational;
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
      return OpCategory::kClassicalMl;
    case IrOpKind::kNnGraph:
      return OpCategory::kLinearAlgebra;
    case IrOpKind::kOpaquePipeline:
      return OpCategory::kUdf;
  }
  return OpCategory::kUdf;
}

bool IsFusablePipelineKind(IrOpKind kind) {
  switch (kind) {
    case IrOpKind::kFilter:
    case IrOpKind::kProject:
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline:
      return true;
    default:
      return false;
  }
}

IrNodePtr IrNode::Clone() const {
  auto node = std::make_unique<IrNode>(kind);
  for (const auto& child : children) node->children.push_back(child->Clone());
  node->table_name = table_name;
  if (predicate != nullptr) node->predicate = predicate->Clone();
  for (const auto& e : proj_exprs) node->proj_exprs.push_back(e->Clone());
  node->proj_names = proj_names;
  node->left_key = left_key;
  node->right_key = right_key;
  node->limit = limit;
  node->aggregates = aggregates;
  node->group_keys = group_keys;
  node->sort_keys = sort_keys;
  node->model_name = model_name;
  node->output_column = output_column;
  // Model payloads are shared; rules copy-on-write when specializing.
  node->pipeline = pipeline;
  node->clustered = clustered;
  node->nn_graph = nn_graph;
  node->nn_graph_fingerprint = nn_graph_fingerprint;
  node->model_input_columns = model_input_columns;
  node->opaque_bytes = opaque_bytes;
  node->opaque_reason = opaque_reason;
  return node;
}

IrNodePtr IrNode::TableScan(std::string table) {
  auto node = std::make_unique<IrNode>(IrOpKind::kTableScan);
  node->table_name = std::move(table);
  return node;
}

IrNodePtr IrNode::Filter(IrNodePtr child, relational::ExprPtr predicate) {
  auto node = std::make_unique<IrNode>(IrOpKind::kFilter);
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

IrNodePtr IrNode::Project(IrNodePtr child,
                          std::vector<relational::ExprPtr> exprs,
                          std::vector<std::string> names) {
  auto node = std::make_unique<IrNode>(IrOpKind::kProject);
  node->children.push_back(std::move(child));
  node->proj_exprs = std::move(exprs);
  node->proj_names = std::move(names);
  return node;
}

IrNodePtr IrNode::ProjectColumns(IrNodePtr child,
                                 const std::vector<std::string>& columns) {
  std::vector<relational::ExprPtr> exprs;
  std::vector<std::string> names;
  for (const auto& c : columns) {
    exprs.push_back(relational::Col(c));
    names.push_back(c);
  }
  return Project(std::move(child), std::move(exprs), std::move(names));
}

IrNodePtr IrNode::Join(IrNodePtr left, IrNodePtr right, std::string left_key,
                       std::string right_key) {
  auto node = std::make_unique<IrNode>(IrOpKind::kJoin);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->left_key = std::move(left_key);
  node->right_key = std::move(right_key);
  return node;
}

IrNodePtr IrNode::UnionAll(std::vector<IrNodePtr> children) {
  auto node = std::make_unique<IrNode>(IrOpKind::kUnionAll);
  node->children = std::move(children);
  return node;
}

IrNodePtr IrNode::Limit(IrNodePtr child, std::int64_t limit) {
  auto node = std::make_unique<IrNode>(IrOpKind::kLimit);
  node->children.push_back(std::move(child));
  node->limit = limit;
  return node;
}

IrNodePtr IrNode::Aggregate(IrNodePtr child,
                            std::vector<AggregateItem> aggregates) {
  auto node = std::make_unique<IrNode>(IrOpKind::kAggregate);
  node->children.push_back(std::move(child));
  node->aggregates = std::move(aggregates);
  return node;
}

IrNodePtr IrNode::GroupBy(IrNodePtr child, std::vector<std::string> group_keys,
                          std::vector<AggregateItem> aggregates) {
  auto node = std::make_unique<IrNode>(IrOpKind::kGroupBy);
  node->children.push_back(std::move(child));
  node->group_keys = std::move(group_keys);
  node->aggregates = std::move(aggregates);
  return node;
}

IrNodePtr IrNode::OrderBy(IrNodePtr child, std::vector<SortKey> sort_keys) {
  auto node = std::make_unique<IrNode>(IrOpKind::kOrderBy);
  node->children.push_back(std::move(child));
  node->sort_keys = std::move(sort_keys);
  return node;
}

IrNodePtr IrNode::ModelPipelineNode(IrNodePtr child, std::string model_name,
                                    std::shared_ptr<const ml::ModelPipeline> model,
                                    std::vector<std::string> input_columns,
                                    std::string output_column) {
  auto node = std::make_unique<IrNode>(IrOpKind::kModelPipeline);
  node->children.push_back(std::move(child));
  node->model_name = std::move(model_name);
  node->pipeline = std::move(model);
  node->model_input_columns = std::move(input_columns);
  node->output_column = std::move(output_column);
  return node;
}

IrNodePtr IrNode::ClusteredPredict(IrNodePtr child, std::string model_name,
                                   std::shared_ptr<ClusteredModel> model,
                                   std::vector<std::string> input_columns,
                                   std::string output_column) {
  auto node = std::make_unique<IrNode>(IrOpKind::kClusteredPredict);
  node->children.push_back(std::move(child));
  node->model_name = std::move(model_name);
  node->clustered = std::move(model);
  node->model_input_columns = std::move(input_columns);
  node->output_column = std::move(output_column);
  return node;
}

namespace {

/// Content hash of a translated graph, taken once at node construction;
/// 0 is reserved for "not computed". Delegates to the nnrt helper so the
/// artifact cache and raven_worker derive the identical key from bytes.
std::uint64_t FingerprintNnGraph(const nnrt::Graph& graph) {
  BinaryWriter writer;
  graph.Serialize(&writer);
  return nnrt::FingerprintGraphBytes(writer.Release());
}

}  // namespace

IrNodePtr IrNode::NnGraph(IrNodePtr child, std::string model_name,
                          std::shared_ptr<nnrt::Graph> graph,
                          std::vector<std::string> input_columns,
                          std::string output_column) {
  auto node = std::make_unique<IrNode>(IrOpKind::kNnGraph);
  node->children.push_back(std::move(child));
  node->model_name = std::move(model_name);
  node->nn_graph = std::move(graph);
  node->nn_graph_fingerprint = FingerprintNnGraph(*node->nn_graph);
  node->model_input_columns = std::move(input_columns);
  node->output_column = std::move(output_column);
  return node;
}

IrNodePtr IrNode::OpaquePipeline(IrNodePtr child, std::string model_name,
                                 std::string bytes, std::string reason,
                                 std::vector<std::string> input_columns,
                                 std::string output_column) {
  auto node = std::make_unique<IrNode>(IrOpKind::kOpaquePipeline);
  node->children.push_back(std::move(child));
  node->model_name = std::move(model_name);
  node->opaque_bytes = std::move(bytes);
  node->opaque_reason = std::move(reason);
  node->model_input_columns = std::move(input_columns);
  node->output_column = std::move(output_column);
  return node;
}

IrPlan IrPlan::Clone() const {
  return root_ == nullptr ? IrPlan() : IrPlan(root_->Clone());
}

Result<std::vector<std::string>> IrPlan::ComputeSchema(
    const IrNode& node, const relational::Catalog& catalog) {
  switch (node.kind) {
    case IrOpKind::kTableScan: {
      // TableSchema covers in-memory and on-disk tables alike.
      return catalog.TableSchema(node.table_name);
    }
    case IrOpKind::kFilter:
    case IrOpKind::kLimit:
    case IrOpKind::kOrderBy:
      return ComputeSchema(*node.children[0], catalog);
    case IrOpKind::kProject:
      return node.proj_names;
    case IrOpKind::kJoin: {
      RAVEN_ASSIGN_OR_RETURN(auto left, ComputeSchema(*node.children[0],
                                                      catalog));
      RAVEN_ASSIGN_OR_RETURN(auto right, ComputeSchema(*node.children[1],
                                                       catalog));
      std::set<std::string> seen(left.begin(), left.end());
      for (const auto& name : right) {
        if (seen.insert(name).second) left.push_back(name);
      }
      return left;
    }
    case IrOpKind::kUnionAll:
      return ComputeSchema(*node.children[0], catalog);
    case IrOpKind::kAggregate: {
      std::vector<std::string> names;
      names.reserve(node.aggregates.size());
      for (const auto& agg : node.aggregates) {
        names.push_back(agg.output_name);
      }
      return names;
    }
    case IrOpKind::kGroupBy: {
      std::vector<std::string> names = node.group_keys;
      names.reserve(names.size() + node.aggregates.size());
      for (const auto& agg : node.aggregates) {
        names.push_back(agg.output_name);
      }
      return names;
    }
    case IrOpKind::kModelPipeline:
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kNnGraph:
    case IrOpKind::kOpaquePipeline: {
      RAVEN_ASSIGN_OR_RETURN(auto schema,
                             ComputeSchema(*node.children[0], catalog));
      schema.push_back(node.output_column);
      return schema;
    }
  }
  return Status::Internal("unreachable IR kind");
}

namespace {

Status ValidateNode(const IrNode& node, const relational::Catalog& catalog) {
  const std::size_t expected_children =
      node.kind == IrOpKind::kTableScan
          ? 0
          : (node.kind == IrOpKind::kJoin
                 ? 2
                 : (node.kind == IrOpKind::kUnionAll ? node.children.size()
                                                     : 1));
  if (node.kind == IrOpKind::kUnionAll) {
    if (node.children.empty()) {
      return Status::InvalidArgument("UnionAll needs >= 1 child");
    }
  } else if (node.children.size() != expected_children) {
    return Status::InvalidArgument(
        std::string(IrOpKindToString(node.kind)) + " expects " +
        std::to_string(expected_children) + " children, has " +
        std::to_string(node.children.size()));
  }
  for (const auto& child : node.children) {
    RAVEN_RETURN_IF_ERROR(ValidateNode(*child, catalog));
  }
  // Schema resolvability checks.
  RAVEN_ASSIGN_OR_RETURN(auto schema, IrPlan::ComputeSchema(node, catalog));
  (void)schema;
  if (!node.model_input_columns.empty()) {
    RAVEN_ASSIGN_OR_RETURN(auto child_schema,
                           IrPlan::ComputeSchema(*node.children[0], catalog));
    std::set<std::string> available(child_schema.begin(), child_schema.end());
    for (const auto& col : node.model_input_columns) {
      if (available.find(col) == available.end()) {
        return Status::InvalidArgument("model input column '" + col +
                                       "' not produced by child of " +
                                       IrOpKindToString(node.kind));
      }
    }
  }
  if (node.kind == IrOpKind::kFilter && node.predicate == nullptr) {
    return Status::InvalidArgument("Filter without predicate");
  }
  if (node.kind == IrOpKind::kOrderBy) {
    if (node.sort_keys.empty()) {
      return Status::InvalidArgument("OrderBy without sort keys");
    }
    RAVEN_ASSIGN_OR_RETURN(auto child_schema,
                           IrPlan::ComputeSchema(*node.children[0], catalog));
    const std::set<std::string> available(child_schema.begin(),
                                          child_schema.end());
    for (const auto& key : node.sort_keys) {
      if (available.find(key.column) == available.end()) {
        return Status::InvalidArgument("sort column '" + key.column +
                                       "' not produced by child");
      }
    }
  }
  if (node.kind == IrOpKind::kAggregate || node.kind == IrOpKind::kGroupBy) {
    // A scalar aggregate needs at least one item; a GroupBy without
    // aggregates is legal — it is SELECT DISTINCT over the keys.
    if (node.kind == IrOpKind::kAggregate && node.aggregates.empty()) {
      return Status::InvalidArgument("Aggregate without aggregate items");
    }
    RAVEN_ASSIGN_OR_RETURN(auto child_schema,
                           IrPlan::ComputeSchema(*node.children[0], catalog));
    const std::set<std::string> available(child_schema.begin(),
                                          child_schema.end());
    std::set<std::string> outputs;
    if (node.kind == IrOpKind::kGroupBy) {
      if (node.group_keys.empty()) {
        return Status::InvalidArgument("GroupBy without group keys");
      }
      for (const auto& key : node.group_keys) {
        if (available.find(key) == available.end()) {
          return Status::InvalidArgument("group key '" + key +
                                         "' not produced by child");
        }
        if (!outputs.insert(key).second) {
          return Status::InvalidArgument("duplicate group key '" + key + "'");
        }
      }
    }
    for (const auto& agg : node.aggregates) {
      if (!outputs.insert(agg.output_name).second) {
        return Status::InvalidArgument("duplicate aggregate output name '" +
                                       agg.output_name +
                                       "' (use AS to disambiguate)");
      }
      if (agg.column.empty()) {
        if (agg.func != AggFunc::kCount) {
          return Status::InvalidArgument(
              std::string(AggFuncToString(agg.func)) + " needs a column");
        }
        continue;
      }
      if (available.find(agg.column) == available.end()) {
        return Status::InvalidArgument("aggregate column '" + agg.column +
                                       "' not produced by child");
      }
    }
  }
  if (node.kind == IrOpKind::kModelPipeline && node.pipeline == nullptr) {
    return Status::InvalidArgument("ModelPipeline without pipeline");
  }
  if (node.kind == IrOpKind::kNnGraph && node.nn_graph == nullptr) {
    return Status::InvalidArgument("NnGraph without graph");
  }
  return Status::OK();
}

void PrintNode(const IrNode& node, int indent, std::ostringstream* os) {
  for (int i = 0; i < indent; ++i) *os << "  ";
  *os << IrOpKindToString(node.kind) << " [" <<
      OpCategoryToString(node.category()) << "]";
  switch (node.kind) {
    case IrOpKind::kTableScan:
      *os << " " << node.table_name;
      break;
    case IrOpKind::kFilter:
      *os << " " << node.predicate->ToString();
      break;
    case IrOpKind::kProject: {
      *os << " [";
      for (std::size_t i = 0; i < node.proj_names.size(); ++i) {
        if (i > 0) *os << ", ";
        const std::string expr = node.proj_exprs[i]->ToString();
        if (expr == node.proj_names[i]) {
          *os << expr;
        } else if (expr.size() > 40) {
          *os << node.proj_names[i] << " := <expr:" << expr.size()
              << " chars>";
        } else {
          *os << node.proj_names[i] << " := " << expr;
        }
      }
      *os << "]";
      break;
    }
    case IrOpKind::kJoin:
      *os << " on " << node.left_key << " = " << node.right_key;
      break;
    case IrOpKind::kLimit:
      *os << " " << node.limit;
      break;
    case IrOpKind::kAggregate: {
      *os << " [";
      for (std::size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *os << ", ";
        const auto& agg = node.aggregates[i];
        *os << agg.output_name << " := " << AggFuncToString(agg.func) << "("
            << (agg.column.empty() ? "*" : agg.column) << ")";
      }
      *os << "]";
      break;
    }
    case IrOpKind::kGroupBy: {
      *os << " keys=[";
      for (std::size_t i = 0; i < node.group_keys.size(); ++i) {
        if (i > 0) *os << ", ";
        *os << node.group_keys[i];
      }
      *os << "] [";
      for (std::size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *os << ", ";
        const auto& agg = node.aggregates[i];
        *os << agg.output_name << " := " << AggFuncToString(agg.func) << "("
            << (agg.column.empty() ? "*" : agg.column) << ")";
      }
      *os << "]";
      break;
    }
    case IrOpKind::kOrderBy: {
      *os << " [";
      for (std::size_t i = 0; i < node.sort_keys.size(); ++i) {
        if (i > 0) *os << ", ";
        *os << node.sort_keys[i].column
            << (node.sort_keys[i].descending ? " DESC" : " ASC");
      }
      *os << "]";
      break;
    }
    case IrOpKind::kModelPipeline:
      *os << " model='" << node.model_name << "' "
          << node.pipeline->Summary() << " -> " << node.output_column;
      break;
    case IrOpKind::kClusteredPredict:
      *os << " model='" << node.model_name << "' k=" << node.clustered->router.k()
          << " -> " << node.output_column;
      break;
    case IrOpKind::kNnGraph:
      *os << " model='" << node.model_name << "' ("
          << node.nn_graph->nodes().size() << " LA ops) -> "
          << node.output_column;
      break;
    case IrOpKind::kOpaquePipeline:
      *os << " model='" << node.model_name << "' reason='"
          << node.opaque_reason << "' -> " << node.output_column;
      break;
    default:
      break;
  }
  *os << "\n";
  for (const auto& child : node.children) {
    PrintNode(*child, indent + 1, os);
  }
}

}  // namespace

Status IrPlan::Validate(const relational::Catalog& catalog) const {
  if (root_ == nullptr) return Status::InvalidArgument("empty plan");
  return ValidateNode(*root_, catalog);
}

std::string IrPlan::ToString() const {
  if (root_ == nullptr) return "(empty plan)\n";
  std::ostringstream os;
  PrintNode(*root_, 0, &os);
  return os.str();
}

std::size_t IrPlan::CountKind(IrOpKind kind) const {
  std::size_t count = 0;
  VisitIr(root(), [&](const IrNode* node) {
    if (node->kind == kind) ++count;
  });
  return count;
}

void VisitIr(IrNode* node, const std::function<void(IrNode*)>& fn) {
  if (node == nullptr) return;
  fn(node);
  for (auto& child : node->children) VisitIr(child.get(), fn);
}

void VisitIr(const IrNode* node,
             const std::function<void(const IrNode*)>& fn) {
  if (node == nullptr) return;
  fn(node);
  // Recurse through a const pointer so overload resolution cannot fall into
  // the non-const VisitIr (child.get() yields IrNode* even here).
  for (const auto& child : node->children) {
    VisitIr(static_cast<const IrNode*>(child.get()), fn);
  }
}

namespace {

constexpr std::uint8_t kFragmentFormatVersion = 1;
constexpr int kMaxFragmentDepth = 64;

/// Children each kind must carry for the physical builder to be safe
/// (children[0]/children[1] indexing). -1 = any count (kUnionAll).
int ExpectedChildren(IrOpKind kind) {
  switch (kind) {
    case IrOpKind::kTableScan:
      return 0;
    case IrOpKind::kJoin:
      return 2;
    case IrOpKind::kUnionAll:
      return -1;
    default:
      return 1;
  }
}

Status SerializeNode(const IrNode& node, BinaryWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(node.kind));
  switch (node.kind) {
    case IrOpKind::kTableScan:
      writer->WriteString(node.table_name);
      break;
    case IrOpKind::kFilter:
      if (node.predicate == nullptr) {
        return Status::InvalidArgument("filter node without a predicate");
      }
      relational::SerializeExpr(*node.predicate, writer);
      break;
    case IrOpKind::kProject:
      if (node.proj_exprs.size() != node.proj_names.size()) {
        return Status::InvalidArgument(
            "projection expression/name count mismatch");
      }
      writer->WriteStringVector(node.proj_names);
      for (const auto& expr : node.proj_exprs) {
        relational::SerializeExpr(*expr, writer);
      }
      break;
    case IrOpKind::kJoin:
      writer->WriteString(node.left_key);
      writer->WriteString(node.right_key);
      break;
    case IrOpKind::kUnionAll:
      break;
    case IrOpKind::kLimit:
      writer->WriteI64(node.limit);
      break;
    case IrOpKind::kAggregate:
      WriteAggregateItems(node.aggregates, writer);
      break;
    case IrOpKind::kGroupBy:
      writer->WriteStringVector(node.group_keys);
      WriteAggregateItems(node.aggregates, writer);
      break;
    case IrOpKind::kOrderBy:
      WriteSortKeys(node.sort_keys, writer);
      break;
    case IrOpKind::kModelPipeline:
      if (node.pipeline == nullptr) {
        return Status::InvalidArgument("pipeline node without a pipeline");
      }
      writer->WriteString(node.model_name);
      writer->WriteString(node.output_column);
      writer->WriteStringVector(node.model_input_columns);
      node.pipeline->Serialize(writer);
      break;
    case IrOpKind::kNnGraph:
      if (node.nn_graph == nullptr) {
        return Status::InvalidArgument("NN-graph node without a graph");
      }
      writer->WriteString(node.model_name);
      writer->WriteString(node.output_column);
      writer->WriteStringVector(node.model_input_columns);
      node.nn_graph->Serialize(writer);
      break;
    case IrOpKind::kClusteredPredict:
      return Status::InvalidArgument(
          "clustered-predict nodes cannot ship: clustering artifacts live in "
          "the optimizer process");
    case IrOpKind::kOpaquePipeline:
      return Status::InvalidArgument(
          "opaque pipelines cannot ship to pool workers: they score through "
          "their own external runtime");
  }
  writer->WriteU32(static_cast<std::uint32_t>(node.children.size()));
  for (const auto& child : node.children) {
    RAVEN_RETURN_IF_ERROR(SerializeNode(*child, writer));
  }
  return Status::OK();
}

Result<IrNodePtr> DeserializeNode(BinaryReader* reader, int depth) {
  if (depth > kMaxFragmentDepth) {
    return Status::ParseError("plan fragment too deep (corrupt payload?)");
  }
  RAVEN_ASSIGN_OR_RETURN(std::uint8_t tag, reader->ReadU8());
  if (tag > static_cast<std::uint8_t>(IrOpKind::kOpaquePipeline)) {
    return Status::ParseError("unknown IR kind code " + std::to_string(tag));
  }
  const IrOpKind kind = static_cast<IrOpKind>(tag);
  auto node = std::make_unique<IrNode>(kind);
  switch (kind) {
    case IrOpKind::kTableScan: {
      RAVEN_ASSIGN_OR_RETURN(node->table_name, reader->ReadString());
      break;
    }
    case IrOpKind::kFilter: {
      RAVEN_ASSIGN_OR_RETURN(node->predicate,
                             relational::DeserializeExpr(reader));
      break;
    }
    case IrOpKind::kProject: {
      RAVEN_ASSIGN_OR_RETURN(node->proj_names, reader->ReadStringVector());
      node->proj_exprs.reserve(node->proj_names.size());
      for (std::size_t i = 0; i < node->proj_names.size(); ++i) {
        RAVEN_ASSIGN_OR_RETURN(auto expr, relational::DeserializeExpr(reader));
        node->proj_exprs.push_back(std::move(expr));
      }
      break;
    }
    case IrOpKind::kJoin: {
      RAVEN_ASSIGN_OR_RETURN(node->left_key, reader->ReadString());
      RAVEN_ASSIGN_OR_RETURN(node->right_key, reader->ReadString());
      break;
    }
    case IrOpKind::kUnionAll:
      break;
    case IrOpKind::kLimit: {
      RAVEN_ASSIGN_OR_RETURN(node->limit, reader->ReadI64());
      break;
    }
    case IrOpKind::kAggregate: {
      RAVEN_ASSIGN_OR_RETURN(node->aggregates, ReadAggregateItems(reader));
      break;
    }
    case IrOpKind::kGroupBy: {
      RAVEN_ASSIGN_OR_RETURN(node->group_keys, reader->ReadStringVector());
      RAVEN_ASSIGN_OR_RETURN(node->aggregates, ReadAggregateItems(reader));
      break;
    }
    case IrOpKind::kOrderBy: {
      RAVEN_ASSIGN_OR_RETURN(node->sort_keys, ReadSortKeys(reader));
      break;
    }
    case IrOpKind::kModelPipeline: {
      RAVEN_ASSIGN_OR_RETURN(node->model_name, reader->ReadString());
      RAVEN_ASSIGN_OR_RETURN(node->output_column, reader->ReadString());
      RAVEN_ASSIGN_OR_RETURN(node->model_input_columns,
                             reader->ReadStringVector());
      RAVEN_ASSIGN_OR_RETURN(auto pipeline,
                             ml::ModelPipeline::Deserialize(reader));
      node->pipeline = std::make_shared<ml::ModelPipeline>(std::move(pipeline));
      break;
    }
    case IrOpKind::kNnGraph: {
      RAVEN_ASSIGN_OR_RETURN(node->model_name, reader->ReadString());
      RAVEN_ASSIGN_OR_RETURN(node->output_column, reader->ReadString());
      RAVEN_ASSIGN_OR_RETURN(node->model_input_columns,
                             reader->ReadStringVector());
      RAVEN_ASSIGN_OR_RETURN(auto graph, nnrt::Graph::Deserialize(reader));
      node->nn_graph = std::make_shared<nnrt::Graph>(std::move(graph));
      node->nn_graph_fingerprint = FingerprintNnGraph(*node->nn_graph);
      break;
    }
    case IrOpKind::kClusteredPredict:
    case IrOpKind::kOpaquePipeline:
      return Status::ParseError(
          std::string(IrOpKindToString(kind)) +
          " nodes never ship; rejecting fragment payload");
  }
  RAVEN_ASSIGN_OR_RETURN(std::uint32_t num_children, reader->ReadU32());
  if (num_children > reader->remaining()) {
    return Status::ParseError("implausible fragment child count");
  }
  const int expected = ExpectedChildren(kind);
  if (expected >= 0 && static_cast<int>(num_children) != expected) {
    return Status::ParseError(
        std::string(IrOpKindToString(kind)) + " node with " +
        std::to_string(num_children) + " children (expected " +
        std::to_string(expected) + ")");
  }
  if (expected < 0 && num_children == 0) {
    return Status::ParseError("UnionAll node without children");
  }
  node->children.reserve(num_children);
  for (std::uint32_t i = 0; i < num_children; ++i) {
    RAVEN_ASSIGN_OR_RETURN(auto child, DeserializeNode(reader, depth + 1));
    node->children.push_back(std::move(child));
  }
  return node;
}

}  // namespace

Status SerializeFragment(const IrNode& node, BinaryWriter* writer) {
  writer->WriteU8(kFragmentFormatVersion);
  return SerializeNode(node, writer);
}

Result<IrNodePtr> DeserializeFragment(BinaryReader* reader) {
  RAVEN_ASSIGN_OR_RETURN(std::uint8_t version, reader->ReadU8());
  if (version != kFragmentFormatVersion) {
    return Status::ParseError("unsupported fragment format version " +
                              std::to_string(version));
  }
  return DeserializeNode(reader, 0);
}

bool IsDistributableFragment(const IrNode& node) {
  switch (node.kind) {
    case IrOpKind::kTableScan:
      return true;
    case IrOpKind::kFilter:
    case IrOpKind::kProject:
    case IrOpKind::kModelPipeline:
    case IrOpKind::kNnGraph:
      return !node.children.empty() &&
             IsDistributableFragment(*node.children[0]);
    default:
      return false;
  }
}

void CollectDistributableFragments(const IrNode& root,
                                   std::vector<const IrNode*>* out) {
  if (IsDistributableFragment(root)) {
    out->push_back(&root);
    return;
  }
  for (const auto& child : root.children) {
    CollectDistributableFragments(*child, out);
  }
}

namespace {

/// Canonical preorder encoding for fingerprinting: enough payload to
/// distinguish semantically different plans, none of the in-memory detail
/// (pointer identity, specialization state) that varies across equivalent
/// optimizations of the same statement.
void EncodeForFingerprint(const IrNode& node, BinaryWriter* writer) {
  writer->WriteU8(static_cast<std::uint8_t>(node.kind));
  writer->WriteString(node.table_name);
  // Expressions encode exactly (SerializeExpr keeps every literal's bits);
  // their `%g` rendering would merge `id = 1000001` with `id = 1000002`.
  writer->WriteBool(node.predicate != nullptr);
  if (node.predicate != nullptr) {
    relational::SerializeExpr(*node.predicate, writer);
  }
  // Variable-length fields carry their count: without it, adjacent fields
  // could re-segment into the same byte stream for two different plans.
  writer->WriteU64(node.proj_exprs.size());
  for (const auto& e : node.proj_exprs) relational::SerializeExpr(*e, writer);
  writer->WriteStringVector(node.proj_names);
  writer->WriteString(node.left_key);
  writer->WriteString(node.right_key);
  writer->WriteI64(node.limit);
  WriteAggregateItems(node.aggregates, writer);
  writer->WriteStringVector(node.group_keys);
  WriteSortKeys(node.sort_keys, writer);
  writer->WriteString(node.model_name);
  writer->WriteString(node.output_column);
  writer->WriteStringVector(node.model_input_columns);
  writer->WriteString(node.opaque_reason);
  writer->WriteU64(node.children.size());
  for (const auto& child : node.children) {
    EncodeForFingerprint(*child, writer);
  }
}

}  // namespace

std::uint64_t PlanFingerprint(const IrNode& node) {
  BinaryWriter writer;
  EncodeForFingerprint(node, &writer);
  // FNV-1a (64-bit) over the canonical encoding.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : writer.buffer()) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::int64_t PlanParamCount(const IrNode& node) {
  std::int64_t max_index = -1;
  VisitIr(&node, [&max_index](const IrNode* n) {
    if (n->predicate != nullptr) {
      max_index =
          std::max(max_index, relational::MaxParamIndex(*n->predicate));
    }
    for (const auto& e : n->proj_exprs) {
      max_index = std::max(max_index, relational::MaxParamIndex(*e));
    }
  });
  return max_index + 1;
}

Result<IrNodePtr> BindPlanParameters(const IrNode& node,
                                     const std::vector<double>& values) {
  IrNodePtr bound = node.Clone();
  Status status = Status::OK();
  VisitIr(bound.get(), [&values, &status](IrNode* n) {
    if (!status.ok()) return;
    if (n->predicate != nullptr) {
      auto replaced = relational::BindParameters(*n->predicate, values);
      if (!replaced.ok()) {
        status = replaced.status();
        return;
      }
      n->predicate = std::move(replaced).value();
    }
    for (auto& e : n->proj_exprs) {
      auto replaced = relational::BindParameters(*e, values);
      if (!replaced.ok()) {
        status = replaced.status();
        return;
      }
      e = std::move(replaced).value();
    }
  });
  if (!status.ok()) return status;
  return bound;
}

}  // namespace raven::ir
