#include "util/table.hpp"

#include <gtest/gtest.h>

namespace byz::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("beta").cell(3.14159, 2);
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ColumnsAfterRowsThrows) {
  Table t("x");
  t.columns({"a"});
  t.row().cell("1");
  EXPECT_THROW(t.columns({"b"}), std::logic_error);
}

TEST(Table, CellBeforeRowThrows) {
  Table t("x");
  t.columns({"a"});
  EXPECT_THROW(t.cell("1"), std::logic_error);
}

TEST(Table, CsvEscapesSpecials) {
  Table t("csv");
  t.columns({"a", "b"});
  t.row().cell("x,y").cell("he said \"hi\"");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NotesAppearInOutput) {
  Table t("n");
  t.columns({"a"});
  t.row().cell("1");
  t.note("paper predicts 2");
  EXPECT_NE(t.str().find("paper predicts 2"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t("pad");
  t.columns({"a", "b", "c"});
  t.row().cell("only");
  EXPECT_NO_THROW((void)t.str());
  EXPECT_NO_THROW((void)t.csv());
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 3), "2.000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace byz::util
