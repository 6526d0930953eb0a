// Quickstart: store a model pipeline in the database and score it with SQL.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "data/hospital.h"
#include "raven/raven.h"

int main() {
  using namespace raven;

  // 1. An in-memory Raven instance (relational engine + NNRT + optimizer).
  RavenContext ctx;

  // 2. Register a table. (Real deployments load CSVs or app data; here we
  //    generate the paper's synthetic hospital dataset.)
  auto data = data::MakeHospitalDataset(10000, /*seed=*/7);
  if (auto s = ctx.RegisterTable("patients", data.joined); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // 3. Train a model pipeline (featurizers + decision tree) and INSERT it
  //    together with its pipeline script — the paper's Fig 1 "M".
  auto pipeline = data::TrainHospitalTree(data, /*max_depth=*/7);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  if (auto s = ctx.InsertModel("duration_of_stay",
                               data::HospitalTreeScript(), *pipeline);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // 4. Issue an inference query — the paper's Fig 1 "Q".
  auto result = ctx.Query(
      "SELECT id, los FROM PREDICT(MODEL='duration_of_stay', "
      "DATA=patients) WITH(los float) "
      "WHERE pregnant = 1 AND los > 7 LIMIT 8");
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("pregnant patients with predicted stay > 7 days:\n%s\n",
              result->table.ToString().c_str());
  std::printf("query time: %.2f ms, optimizer rules fired: %zu\n",
              result->total_millis,
              result->optimization.TotalApplications());
  std::printf("generated SQL:\n  %s\n", result->GeneratedSql().c_str());
  return 0;
}
