#include "qoe/report.hpp"

#include <filesystem>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/csv.hpp"

namespace soda::qoe {
namespace {

EvalResult MakeResult(const std::string& name, double qoe_a, double qoe_b) {
  EvalResult result;
  result.controller_name = name;
  for (const double qoe : {qoe_a, qoe_b}) {
    QoeMetrics m;
    m.qoe = qoe;
    m.mean_utility = qoe + 0.1;
    m.rebuffer_ratio = 0.01;
    m.switch_rate = 0.05;
    m.segment_count = 300;
    result.per_session.push_back(m);
    result.aggregate.Add(m);
  }
  return result;
}

TEST(Report, PerSessionCsvShape) {
  const std::string csv =
      PerSessionCsv({MakeResult("SODA", 0.8, 0.9), MakeResult("MPC", 0.5, 0.6)});
  const CsvTable table = ParseCsv(csv, /*has_header=*/true);
  EXPECT_EQ(table.ColumnIndex("qoe"), 2);
  ASSERT_EQ(table.rows.size(), 4u);
  EXPECT_EQ(table.rows[0][0], "SODA");
  EXPECT_EQ(table.rows[3][0], "MPC");
  EXPECT_EQ(table.rows[1][1], "1");  // session index
  EXPECT_NEAR(ParseDouble(table.rows[0][2], "qoe"), 0.8, 1e-9);
  EXPECT_EQ(table.rows[0][6], "300");
}

TEST(Report, WriteCsvFile) {
  const auto path = soda::testing::UniqueTempPath("report.csv");
  WritePerSessionCsv({MakeResult("SODA", 0.8, 0.9)}, path);
  const CsvTable table = LoadCsvFile(path, true);
  EXPECT_EQ(table.rows.size(), 2u);
  std::filesystem::remove(path);
}

TEST(Report, WriteCsvBadPathThrows) {
  EXPECT_THROW(
      WritePerSessionCsv({MakeResult("SODA", 0.8, 0.9)}, "/nonexistent/x.csv"),
      std::runtime_error);
}

TEST(Report, SummaryMarkdown) {
  const std::string md =
      SummaryMarkdown({MakeResult("SODA", 0.8, 0.9), MakeResult("MPC", 0.5, 0.6)});
  EXPECT_NE(md.find("| SODA |"), std::string::npos);
  EXPECT_NE(md.find("| MPC |"), std::string::npos);
  EXPECT_NE(md.find("0.850"), std::string::npos);  // SODA mean QoE
  EXPECT_NE(md.find("| controller |"), std::string::npos);
}

TEST(Report, QoeImprovementOverBest) {
  const EvalResult ours = MakeResult("SODA", 1.0, 1.2);   // mean 1.1
  const EvalResult weak = MakeResult("A", 0.4, 0.6);      // mean 0.5
  const EvalResult strong = MakeResult("B", 0.9, 1.1);    // mean 1.0
  EXPECT_NEAR(QoeImprovementOverBest(ours, {weak, strong}), 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(QoeImprovementOverBest(ours, {}), 0.0);
  const EvalResult negative = MakeResult("C", -1.0, -0.5);
  EXPECT_DOUBLE_EQ(QoeImprovementOverBest(ours, {negative}), 0.0);
}

}  // namespace
}  // namespace soda::qoe
