// Unit tests for the table renderer, CSV writer and CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace cr {
namespace {

TEST(Cell, Formats) {
  EXPECT_EQ(Cell("abc").text(), "abc");
  EXPECT_EQ(Cell(42).text(), "42");
  EXPECT_EQ(Cell(static_cast<std::int64_t>(-7)).text(), "-7");
  EXPECT_EQ(Cell(static_cast<std::uint64_t>(9)).text(), "9");
  EXPECT_EQ(Cell(3.14159, 2).text(), "3.14");
  EXPECT_EQ(Cell(1.0, 0).text(), "1");
}

TEST(FormatDouble, SpecialValues) {
  EXPECT_EQ(format_double(std::nan(""), 2), "nan");
  EXPECT_EQ(format_double(1.0 / 0.0, 2), "inf");
  EXPECT_EQ(format_double(-1.0 / 0.0, 2), "-inf");
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.add_row({"alpha", Cell(1)});
  t.add_row({"b", Cell(22)});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, TitlePrinted) {
  Table t({"x"});
  t.set_title("My Table");
  EXPECT_EQ(t.to_string().rfind("My Table\n", 0), 0u);
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b"});
  w.row({"1", "2"});
  w.row_numeric({3.5, 4.0});
  EXPECT_EQ(os.str(), "a,b\n1,2\n3.5,4\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(Csv, NumericRowsRoundTripExactly) {
  // Values >= 1e6 used to be truncated by precision(6); every cell must now
  // parse back to the bit-identical double.
  const std::vector<double> values = {1234567.891011, 1e6 + 0.125, 9876543210.123,
                                      1.0 / 3.0, -2.5e-7, 0.0};
  std::ostringstream os;
  CsvWriter w(os, {"a", "b", "c", "d", "e", "f"});
  w.row_numeric(values);
  std::istringstream is(os.str());
  std::string header, line;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, line));
  std::istringstream cells(line);
  std::string cell;
  for (double expected : values) {
    ASSERT_TRUE(std::getline(cells, cell, ','));
    EXPECT_EQ(std::stod(cell), expected) << "cell text: " << cell;
  }
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: a bare "--flag value" consumes the value, so boolean flags must
  // come last or use --flag=true.
  const char* argv[] = {"prog", "--n=128", "--rate", "0.5", "input.txt", "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get_int("x", 7), 7);
  EXPECT_EQ(cli.get_string("s", "d"), "d");
  EXPECT_FALSE(cli.get_bool("b", false));
}

TEST(Cli, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no"};
  Cli cli(7, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_FALSE(cli.get_bool("e", true));
  EXPECT_FALSE(cli.get_bool("f", true));
}

}  // namespace
}  // namespace cr
