#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "data/census.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/table.h"
#include "stats/kendall.h"

namespace dpcopula::data {
namespace {

Schema TwoColSchema() { return Schema({{"a", 10}, {"b", 5}}); }

TEST(SchemaTest, Accessors) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.attribute(0).name, "a");
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_DOUBLE_EQ(s.DomainSpace(), 50.0);
}

TEST(TableTest, AppendAndAccess) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  ASSERT_TRUE(t.AppendRow({3, 4}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
  EXPECT_FALSE(t.AppendRow({1}).ok());  // Arity mismatch.
}

TEST(TableTest, ValidateDetectsOutOfDomain) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  EXPECT_TRUE(t.Validate().ok());
  ASSERT_TRUE(t.AppendRow({11, 2}).ok());  // 11 outside [0, 10).
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ValidateDetectsNonIntegral) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1.5, 2}).ok());
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, FilterSelectsMatchingRows) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 0}).ok());
  ASSERT_TRUE(t.AppendRow({2, 1}).ok());
  ASSERT_TRUE(t.AppendRow({3, 0}).ok());
  Table f = t.Filter(1, 0.0);
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.at(1, 0), 3.0);
}

TEST(TableTest, ProjectKeepsSelectedColumns) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  auto p = t.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 1u);
  EXPECT_EQ(p->schema().attribute(0).name, "b");
  EXPECT_DOUBLE_EQ(p->at(0, 0), 2.0);
  EXPECT_FALSE(t.Project({5}).ok());
}

TEST(TableTest, ConcatRequiresMatchingSchema) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.AppendRow({1, 1}).ok());
  ASSERT_TRUE(b.AppendRow({2, 2}).ok());
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 2u);
  Table c(Schema({{"x", 3}}));
  EXPECT_FALSE(a.Concat(c).ok());
}

TEST(TableTest, RangeCount) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 1}).ok());
  ASSERT_TRUE(t.AppendRow({5, 2}).ok());
  ASSERT_TRUE(t.AppendRow({9, 4}).ok());
  EXPECT_EQ(t.RangeCount({0, 0}, {9, 4}), 3);
  EXPECT_EQ(t.RangeCount({2, 0}, {9, 4}), 2);
  EXPECT_EQ(t.RangeCount({0, 3}, {9, 4}), 1);
  EXPECT_EQ(t.RangeCount({6, 0}, {5, 4}), 0);
}

TEST(TableTest, ZerosHasRequestedShape) {
  Table t = Table::Zeros(TwoColSchema(), 7);
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_DOUBLE_EQ(t.at(6, 1), 0.0);
}

TEST(CsvTest, RoundTrip) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  ASSERT_TRUE(t.AppendRow({9, 4}).ok());
  const std::string path = "/tmp/dpcopula_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsvWithSchema(path, t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(back->at(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(CsvTest, InferredSchemaUsesMaxPlusOne) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({7, 3}).ok());
  const std::string path = "/tmp/dpcopula_csv_infer.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->schema().attribute(0).domain_size, 8);
  EXPECT_EQ(back->schema().attribute(1).domain_size, 4);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kIOError);
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(CsvTest, WriteCsvEmitsExactBytes) {
  Table t(Schema({{"age", 100}, {"income", 70000}, {"kids", 4}}));
  ASSERT_TRUE(t.AppendRow({0, 0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({42, 65535, 3}).ok());
  ASSERT_TRUE(t.AppendRow({7.4, 12.5, 2.6}).ok());  // Rounded half away.
  ASSERT_TRUE(t.AppendRow({-3, 1e6, 1}).ok());
  const std::string path = "/tmp/dpcopula_csv_bytes.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  EXPECT_EQ(ReadFile(path),
            "age,income,kids\n"
            "0,0,0\n"
            "42,65535,3\n"
            "7,13,3\n"
            "-3,1000000,1\n");
  std::remove(path.c_str());
}

TEST(CsvTest, RoundTripAcrossManyBufferFills) {
  // ~0.9 MB of CSV: many fills of the 64 KiB read buffer, with rows split
  // across fills, and a final row with no trailing newline.
  Rng rng(3);
  Table t(Schema({{"a", 1000000}, {"b", 7}, {"c", 100000}}));
  for (int r = 0; r < 60000; ++r) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(rng.NextInt64InRange(
                                 0, 999999)),
                             static_cast<double>(r % 7),
                             static_cast<double>(rng.NextInt64InRange(
                                 0, 99999))})
                    .ok());
  }
  const std::string path = "/tmp/dpcopula_csv_fills.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 10u * 64 * 1024);
  bytes.pop_back();  // Drop the final '\n'.
  WriteFile(path, bytes);
  auto back = ReadCsvWithSchema(path, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (std::size_t j = 0; j < t.num_columns(); ++j) {
    EXPECT_EQ(back->column(j), t.column(j)) << "column " << j;
  }
  std::remove(path.c_str());
}

TEST(CsvTest, LineLongerThanReadBuffer) {
  // A 300-column table whose header and rows exceed the read buffer.
  std::vector<Attribute> attrs;
  for (int j = 0; j < 300; ++j) {
    attrs.push_back({std::string(300, 'a').append(std::to_string(j)), 2});
  }
  Table t{Schema(attrs)};
  ASSERT_TRUE(t.AppendRow(std::vector<double>(300, 1.0)).ok());
  const std::string path = "/tmp/dpcopula_csv_long.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->schema().attribute(299).name, attrs[299].name);
  EXPECT_DOUBLE_EQ(back->at(0, 299), 1.0);
  std::remove(path.c_str());
}

TEST(CsvTest, CrlfLineEndingsLoad) {
  const std::string path = "/tmp/dpcopula_csv_crlf.csv";
  WriteFile(path, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema().attribute(1).name, "b");
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(back->at(1, 1), 4.0);
  // Only one '\r' is a line ending; a second one is part of the cell.
  WriteFile(path, "a,b\n1,2\r\r\n");
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, OutOfRangeLiteralIsNonFinite) {
  // 1e400 overflows a double: it reads as inf, as strtod gives, and the
  // tolerant reader quarantines it; 1e-400 underflows to 0 and is kept.
  const std::string path = "/tmp/dpcopula_csv_range.csv";
  WriteFile(path, "a,b\n1e400,1\n1e-400,2\n");
  ReadCsvOptions options;
  options.max_bad_rows = 1;
  auto read = ReadCsvTolerant(path, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->stats.bad_non_finite, 1u);
  ASSERT_EQ(read->table.num_rows(), 1u);
  EXPECT_EQ(read->table.at(0, 0), 0.0);
  // The strict reader keeps the inf cell; inferring a domain from it fails.
  auto strict = ReadCsvWithSchema(path, TwoColSchema());
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_TRUE(std::isinf(strict->at(0, 0)));
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Each data row is whole tokens or it is quarantined under its reason.
struct BadRowCase {
  const char* row;
  bool too_many_cells;  // Otherwise non-numeric.
};

void PrintTo(const BadRowCase& c, std::ostream* os) {
  *os << '"' << c.row << '"';
}

class CsvWholeTokenTest : public ::testing::TestWithParam<BadRowCase> {};

TEST_P(CsvWholeTokenTest, RejectsRow) {
  const std::string path = "/tmp/dpcopula_csv_token.csv";
  WriteFile(path, std::string("a,b\n1,2\n") + GetParam().row + "\n5,6\n");
  EXPECT_FALSE(ReadCsv(path).ok());
  ReadCsvOptions options;
  options.max_bad_rows = 1;
  auto read = ReadCsvTolerant(path, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->stats.rows_kept, 2u);
  EXPECT_EQ(read->stats.bad_rows, 1u);
  EXPECT_EQ(read->stats.first_bad_line, 3u);
  EXPECT_EQ(read->stats.bad_too_many_cells,
            GetParam().too_many_cells ? 1u : 0u);
  EXPECT_EQ(read->stats.bad_non_numeric, GetParam().too_many_cells ? 0u : 1u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Rows, CsvWholeTokenTest,
    ::testing::Values(BadRowCase{"12abc,3", false}, BadRowCase{"0x10,3", false},
                      BadRowCase{" 7,3", false}, BadRowCase{"7 ,3", false},
                      BadRowCase{"+7,3", false}, BadRowCase{"1,,3", false},
                      BadRowCase{"1,2,", true}));

TEST(MarginSpecTest, ProbabilitiesNormalized) {
  for (const auto& spec :
       {MarginSpec::Uniform("u", 100), MarginSpec::Gaussian("g", 100),
        MarginSpec::Zipf("z", 100, 1.2), MarginSpec::Bernoulli("b", 0.3)}) {
    auto p = MarginProbabilities(spec);
    ASSERT_TRUE(p.ok()) << spec.name;
    double total = 0.0;
    for (double v : *p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << spec.name;
  }
}

TEST(MarginSpecTest, BernoulliShape) {
  auto p = MarginProbabilities(MarginSpec::Bernoulli("b", 0.3));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[0], 0.7, 1e-12);
  EXPECT_NEAR((*p)[1], 0.3, 1e-12);
}

TEST(MarginSpecTest, InvalidSpecsRejected) {
  MarginSpec bad = MarginSpec::Bernoulli("b", 1.5);
  EXPECT_FALSE(MarginProbabilities(bad).ok());
  MarginSpec neg = MarginSpec::Piecewise("p", {1.0, -2.0});
  EXPECT_FALSE(MarginProbabilities(neg).ok());
  MarginSpec empty;
  empty.domain_size = 0;
  EXPECT_FALSE(MarginProbabilities(empty).ok());
}

TEST(GeneratorTest, MarginsMatchSpecifiedDistribution) {
  Rng rng(51);
  std::vector<MarginSpec> specs = {MarginSpec::Zipf("z", 50, 1.0),
                                   MarginSpec::Uniform("u", 50)};
  auto corr = Equicorrelation(2, 0.0);
  ASSERT_TRUE(corr.ok());
  auto t = GenerateGaussianDependent(specs, *corr, 40000, &rng);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Validate().ok());
  auto probs = MarginProbabilities(specs[0]);
  ASSERT_TRUE(probs.ok());
  std::vector<double> freq(50, 0.0);
  for (double v : t->column(0)) freq[static_cast<std::size_t>(v)] += 1.0;
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_NEAR(freq[v] / 40000.0, (*probs)[v], 0.01) << "value " << v;
  }
}

TEST(GeneratorTest, GaussianDependenceInducesTargetKendall) {
  Rng rng(53);
  std::vector<MarginSpec> specs = {MarginSpec::Gaussian("a", 500),
                                   MarginSpec::Gaussian("b", 500)};
  const double rho = 0.7;
  auto corr = Equicorrelation(2, rho);
  ASSERT_TRUE(corr.ok());
  auto t = GenerateGaussianDependent(specs, *corr, 20000, &rng);
  ASSERT_TRUE(t.ok());
  auto tau = stats::KendallTau(t->column(0), t->column(1));
  ASSERT_TRUE(tau.ok());
  // For Gaussian dependence, tau = (2/pi) asin(rho).
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.03);
}

TEST(GeneratorTest, Ar1CorrelationShape) {
  auto p = Ar1Correlation(4, 0.5);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(p(3, 0), 0.125);
}

TEST(GeneratorTest, EquicorrelationValidation) {
  EXPECT_TRUE(Equicorrelation(4, 0.5).ok());
  EXPECT_FALSE(Equicorrelation(4, -0.5).ok());  // Below -1/(m-1).
  EXPECT_FALSE(Equicorrelation(4, 1.0).ok());
}

TEST(GeneratorTest, ShapeMismatchRejected) {
  Rng rng(57);
  std::vector<MarginSpec> specs = {MarginSpec::Uniform("u", 10)};
  auto corr = Equicorrelation(2, 0.1);
  ASSERT_TRUE(corr.ok());
  EXPECT_FALSE(GenerateGaussianDependent(specs, *corr, 10, &rng).ok());
}

TEST(TableTest, FilterOnEmptyTableAndNoMatches) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.Filter(0, 1.0).num_rows(), 0u);
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  EXPECT_EQ(t.Filter(0, 9.0).num_rows(), 0u);
}

TEST(TableTest, ProjectPreservesRowCount) {
  Table t(TwoColSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i), 0}).ok());
  }
  auto p = t.Project({0, 1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 5u);
  auto swapped = t.Project({1, 0});
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->schema().attribute(0).name, "b");
  EXPECT_DOUBLE_EQ(swapped->at(3, 1), 3.0);
}

TEST(TableTest, RangeCountEmptyTable) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.RangeCount({0, 0}, {9, 4}), 0);
}

TEST(TableTest, ConcatEmptyIsNoop) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.AppendRow({1, 1}).ok());
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 1u);
}

TEST(GeneratorTest, SingleRowAndSingleColumn) {
  Rng rng(69);
  std::vector<MarginSpec> specs = {MarginSpec::Uniform("u", 5)};
  auto one = GenerateGaussianDependent(specs, linalg::Matrix::Identity(1), 1,
                                       &rng);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_rows(), 1u);
  EXPECT_TRUE(one->Validate().ok());
  auto zero = GenerateGaussianDependent(specs, linalg::Matrix::Identity(1),
                                        0, &rng);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0u);
}

TEST(GeneratorTest, ExponentialAndGammaFamilies) {
  MarginSpec expo;
  expo.name = "e";
  expo.family = MarginFamily::kExponential;
  expo.domain_size = 100;
  auto pe = MarginProbabilities(expo);
  ASSERT_TRUE(pe.ok());
  // Strictly decreasing.
  for (std::size_t i = 1; i < pe->size(); ++i) {
    EXPECT_LT((*pe)[i], (*pe)[i - 1]);
  }
  MarginSpec gamma;
  gamma.name = "g";
  gamma.family = MarginFamily::kGamma;
  gamma.domain_size = 100;
  gamma.shape = 3.0;
  auto pg = MarginProbabilities(gamma);
  ASSERT_TRUE(pg.ok());
  // Unimodal with interior mode for shape > 1.
  std::size_t mode = 0;
  for (std::size_t i = 0; i < pg->size(); ++i) {
    if ((*pg)[i] > (*pg)[mode]) mode = i;
  }
  EXPECT_GT(mode, 0u);
  EXPECT_LT(mode, 99u);
}

TEST(CensusTest, SchemasMatchPaperTable2) {
  Schema us = UsCensusSchema();
  ASSERT_EQ(us.num_attributes(), 4u);
  EXPECT_EQ(us.attribute(0).domain_size, 96);    // Age.
  EXPECT_EQ(us.attribute(1).domain_size, 1020);  // Income.
  EXPECT_EQ(us.attribute(2).domain_size, 511);   // Occupation.
  EXPECT_EQ(us.attribute(3).domain_size, 2);     // Gender.

  Schema br = BrazilCensusSchema();
  ASSERT_EQ(br.num_attributes(), 8u);
  EXPECT_EQ(br.attribute(0).domain_size, 95);
  EXPECT_EQ(br.attribute(1).domain_size, 2);
  EXPECT_EQ(br.attribute(2).domain_size, 2);
  EXPECT_EQ(br.attribute(3).domain_size, 2);
  EXPECT_EQ(br.attribute(4).domain_size, 31);
  EXPECT_EQ(br.attribute(5).domain_size, 140);
  EXPECT_EQ(br.attribute(6).domain_size, 95);
  EXPECT_EQ(br.attribute(7).domain_size, 586);
}

TEST(CensusTest, UsCensusGeneratesValidSkewedData) {
  Rng rng(61);
  auto t = GenerateUsCensus(20000, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 20000u);
  EXPECT_TRUE(t->Validate().ok());
  EXPECT_TRUE(t->schema() == UsCensusSchema());
  // Income should correlate positively with age (by construction).
  auto tau = stats::KendallTau(t->column(0), t->column(1));
  ASSERT_TRUE(tau.ok());
  EXPECT_GT(*tau, 0.1);
  // Gender split near 51%.
  double ones = 0.0;
  for (double v : t->column(3)) ones += v;
  EXPECT_NEAR(ones / 20000.0, 0.51, 0.02);
}

TEST(CensusTest, BrazilCensusGeneratesValidData) {
  Rng rng(67);
  auto t = GenerateBrazilCensus(10000, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Validate().ok());
  EXPECT_TRUE(t->schema() == BrazilCensusSchema());
  // Disability is rare.
  double dis = 0.0;
  for (double v : t->column(2)) dis += v;
  EXPECT_LT(dis / 10000.0, 0.15);
  // Education-income dependence is positive.
  auto tau = stats::KendallTau(t->column(5), t->column(7));
  ASSERT_TRUE(tau.ok());
  EXPECT_GT(*tau, 0.1);
}

}  // namespace
}  // namespace dpcopula::data
