#include "frontend/analyzer.h"

#include "common/timer.h"
#include "frontend/sql_parser.h"
#include "ml/pipeline.h"

namespace raven::frontend {
namespace {

/// Maps an estimator callable from the knowledge base to the predictor
/// family it must correspond to in the trained pipeline.
Result<ml::PredictorKind> PredictorKindFor(const std::string& callable) {
  if (callable == "DecisionTreeClassifier" ||
      callable == "DecisionTreeRegressor") {
    return ml::PredictorKind::kDecisionTree;
  }
  if (callable == "RandomForestClassifier" ||
      callable == "RandomForestRegressor") {
    return ml::PredictorKind::kRandomForest;
  }
  if (callable == "LogisticRegression" || callable == "LinearRegression" ||
      callable == "Lasso") {
    return ml::PredictorKind::kLinearModel;
  }
  if (callable == "MLPClassifier" || callable == "MLPRegressor") {
    return ml::PredictorKind::kMlp;
  }
  return Status::InvalidArgument("estimator '" + callable +
                                 "' not in knowledge base");
}

Result<ml::TransformKind> TransformKindFor(const std::string& callable) {
  if (callable == "StandardScaler") return ml::TransformKind::kScaler;
  if (callable == "OneHotEncoder") return ml::TransformKind::kOneHot;
  if (callable == "passthrough" || callable == "ColumnSelector") {
    return ml::TransformKind::kIdentity;
  }
  return Status::InvalidArgument("transform '" + callable +
                                 "' not in knowledge base");
}

}  // namespace

Status StaticAnalyzer::CheckSpecMatchesPipeline(
    const PipelineSpec& spec, const ml::ModelPipeline& pipeline) {
  RAVEN_ASSIGN_OR_RETURN(ml::PredictorKind expected_kind,
                         PredictorKindFor(spec.predictor_callable));
  if (ml::KindOf(pipeline.predictor) != expected_kind) {
    return Status::InvalidArgument(
        "script declares " + spec.predictor_callable +
        " but stored pipeline has " +
        ml::PredictorKindToString(ml::KindOf(pipeline.predictor)));
  }
  const auto& branches = pipeline.featurizer.branches();
  if (!spec.branches.empty() && spec.branches.size() != branches.size()) {
    return Status::InvalidArgument(
        "script declares " + std::to_string(spec.branches.size()) +
        " featurizer branches; stored pipeline has " +
        std::to_string(branches.size()));
  }
  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    RAVEN_ASSIGN_OR_RETURN(ml::TransformKind kind,
                           TransformKindFor(spec.branches[b].callable));
    if (branches[b].kind != kind) {
      return Status::InvalidArgument(
          "featurizer branch " + std::to_string(b) + " ('" +
          spec.branches[b].step_name + "') kind mismatch");
    }
    // Column-name binding: script columns must exist in the pipeline's
    // declared input columns and match the branch's column indices.
    for (std::size_t c = 0; c < spec.branches[b].columns.size(); ++c) {
      const std::string& name = spec.branches[b].columns[c];
      std::int64_t idx = -1;
      for (std::size_t i = 0; i < pipeline.input_columns.size(); ++i) {
        if (pipeline.input_columns[i] == name) {
          idx = static_cast<std::int64_t>(i);
          break;
        }
      }
      if (idx < 0) {
        return Status::InvalidArgument("script column '" + name +
                                       "' not among pipeline inputs");
      }
      if (c < branches[b].input_columns.size() &&
          branches[b].input_columns[c] != idx) {
        return Status::InvalidArgument("script column '" + name +
                                       "' bound to a different index than "
                                       "the trained branch");
      }
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const StaticAnalyzer::AnalyzedModel>>
StaticAnalyzer::Analyzed(const std::string& model_name) const {
  RAVEN_ASSIGN_OR_RETURN(const std::int64_t stamp,
                         catalog_->ModelStamp(model_name));
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    auto it = models_.find(model_name);
    if (it != models_.end() && it->second->stamp == stamp) return it->second;
  }
  RAVEN_ASSIGN_OR_RETURN(relational::StoredModel stored,
                         catalog_->GetModel(model_name));
  auto pipeline_result = ml::ModelPipeline::FromBytes(stored.pipeline_bytes);
  if (!pipeline_result.ok()) {
    return pipeline_result.status();  // corrupt store is a hard error
  }
  auto analyzed = std::make_shared<AnalyzedModel>();
  analyzed->stamp = stored.stamp;
  analyzed->pipeline =
      std::make_shared<ml::ModelPipeline>(std::move(pipeline_result).value());
  // Script analysis; any failure downgrades to the UDF/opaque path rather
  // than failing the query (paper §3.1 "UDFs").
  Status checked = [&]() -> Status {
    RAVEN_ASSIGN_OR_RETURN(auto script, ParsePipelineScript(stored.script));
    RAVEN_ASSIGN_OR_RETURN(auto spec, ExtractPipelineSpec(script));
    return CheckSpecMatchesPipeline(spec, *analyzed->pipeline);
  }();
  if (!checked.ok()) {
    analyzed->fallback_reason = checked.message().empty()
                                    ? "script analysis failed"
                                    : checked.message();
    analyzed->opaque_bytes = std::move(stored.pipeline_bytes);
  }
  std::shared_ptr<const AnalyzedModel> result = std::move(analyzed);
  std::lock_guard<std::mutex> lock(models_mu_);
  models_[model_name] = result;  // replaces the entry of an older stamp
  return result;
}

Result<ir::IrNodePtr> StaticAnalyzer::BuildModelNode(
    const std::string& model_name, ir::IrNodePtr data,
    const std::string& output_column, AnalysisStats* stats) const {
  Timer timer;
  RAVEN_ASSIGN_OR_RETURN(auto analyzed, Analyzed(model_name));
  const bool opaque = !analyzed->fallback_reason.empty();
  if (stats != nullptr) {
    stats->script_analysis_micros = timer.ElapsedMicros();
    stats->used_udf_fallback = opaque;
    if (opaque) stats->fallback_reason = analyzed->fallback_reason;
  }
  if (opaque) {
    return ir::IrNode::OpaquePipeline(
        std::move(data), model_name, analyzed->opaque_bytes,
        analyzed->fallback_reason, analyzed->pipeline->input_columns,
        output_column);
  }
  return ir::IrNode::ModelPipelineNode(std::move(data), model_name,
                                       analyzed->pipeline,
                                       analyzed->pipeline->input_columns,
                                       output_column);
}

Result<ir::IrPlan> StaticAnalyzer::Analyze(const std::string& sql,
                                           AnalysisStats* stats) const {
  Timer timer;
  ModelNodeBuilder builder = [this, stats](const std::string& model_name,
                                           ir::IrNodePtr data,
                                           const std::string& output_column) {
    return BuildModelNode(model_name, std::move(data), output_column, stats);
  };
  RAVEN_ASSIGN_OR_RETURN(ir::IrPlan plan,
                         ParseInferenceQuery(sql, *catalog_, builder));
  RAVEN_RETURN_IF_ERROR(plan.Validate(*catalog_));
  if (stats != nullptr) {
    stats->sql_parse_micros =
        timer.ElapsedMicros() - stats->script_analysis_micros;
  }
  return plan;
}

}  // namespace raven::frontend
