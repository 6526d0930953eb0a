#ifndef RAVEN_FRONTEND_ANALYZER_H_
#define RAVEN_FRONTEND_ANALYZER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "frontend/pipeline_parser.h"
#include "ir/ir.h"
#include "relational/catalog.h"

namespace raven::frontend {

/// Statistics from the last analysis (the paper reports <10 ms end-to-end
/// static analysis; bench_ablation_static_analysis reproduces that check).
struct AnalysisStats {
  double sql_parse_micros = 0.0;
  double script_analysis_micros = 0.0;
  bool used_udf_fallback = false;
  std::string fallback_reason;
};

/// Raven's Static Analyzer (paper §3.2): parses the inference query's SQL
/// into RA operators and the referenced models' pipeline scripts into MLD
/// operators, producing a single unified-IR plan. Scripts the analyzer
/// cannot map through the API knowledge base (unknown calls, control flow)
/// degrade gracefully into OpaquePipeline (UDF-category) nodes that still
/// execute but forgo cross-optimizations.
class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(const relational::Catalog* catalog)
      : catalog_(catalog) {}

  /// Analyzes a full inference query.
  Result<ir::IrPlan> Analyze(const std::string& sql,
                             AnalysisStats* stats = nullptr) const;

  /// Analyzes a stored model's script against its trained pipeline,
  /// returning the IR node to splice above `data`.
  Result<ir::IrNodePtr> BuildModelNode(const std::string& model_name,
                                       ir::IrNodePtr data,
                                       const std::string& output_column,
                                       AnalysisStats* stats = nullptr) const;

  /// Validates that the scripted structure matches the trained pipeline
  /// (branch kinds/columns and predictor family). Exposed for tests.
  static Status CheckSpecMatchesPipeline(const PipelineSpec& spec,
                                         const ml::ModelPipeline& pipeline);

 private:
  /// A stored model deserialized and its script checked, once per model
  /// stamp (catalog insert/update): every statement naming the model
  /// shares it, read-only.
  struct AnalyzedModel {
    std::int64_t stamp = 0;
    std::shared_ptr<const ml::ModelPipeline> pipeline;
    /// Empty when the script analyzed; else why the model runs opaque.
    std::string fallback_reason;
    /// The stored bytes, kept only for the opaque path.
    std::string opaque_bytes;
  };

  /// The model's current AnalyzedModel, built on the first statement after
  /// each insert or update.
  Result<std::shared_ptr<const AnalyzedModel>> Analyzed(
      const std::string& model_name) const;

  const relational::Catalog* catalog_;
  mutable std::mutex models_mu_;
  mutable std::map<std::string, std::shared_ptr<const AnalyzedModel>> models_;
};

}  // namespace raven::frontend

#endif  // RAVEN_FRONTEND_ANALYZER_H_
