// ArgParser: the one CLI front door every armbar binary shares.
#include <gtest/gtest.h>

#include "runner/arg_parser.hpp"

namespace armbar::runner {
namespace {

// argv helper: gtest-owned storage, mutable char* as main() would get.
class Args {
 public:
  explicit Args(std::vector<std::string> words) : words_(std::move(words)) {
    for (auto& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("list", "list things");
  p.add_value("jobs", "N", "parallel jobs", "0");
  p.add_optional_value("json", "PATH", "write a report");
  return p;
}

TEST(ArgParser, FlagsDefaultAbsent) {
  ArgParser p = make_parser();
  Args a({"prog"});
  std::string err;
  ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err)) << err;
  EXPECT_FALSE(p.given("list"));
  EXPECT_FALSE(p.given("jobs"));
  EXPECT_EQ(p.str("jobs"), "0");  // the registered default
  EXPECT_EQ(p.integer("jobs", 7), 7);
}

TEST(ArgParser, ValueBothSpellings) {
  for (const auto& words : {std::vector<std::string>{"prog", "--jobs", "8"},
                            std::vector<std::string>{"prog", "--jobs=8"}}) {
    ArgParser p = make_parser();
    Args a(words);
    std::string err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err)) << err;
    EXPECT_TRUE(p.given("jobs"));
    EXPECT_EQ(p.integer("jobs", 0), 8);
  }
}

TEST(ArgParser, OptionalValueWithAndWithout) {
  ArgParser p = make_parser();
  Args a({"prog", "--json"});
  std::string err;
  ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_TRUE(p.given("json"));
  EXPECT_EQ(p.str("json"), "");

  ArgParser q = make_parser();
  Args b({"prog", "--json=out.json"});
  ASSERT_TRUE(q.parse(b.argc(), b.argv(), &err));
  EXPECT_EQ(q.str("json"), "out.json");
}

TEST(ArgParser, OptionalValueNeverSwallowsPositional) {
  ArgParser p = make_parser();
  Args a({"prog", "--json", "leftover"});
  std::string err;
  ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_EQ(p.str("json"), "");
  ASSERT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "leftover");
}

TEST(ArgParser, UnknownOptionFails) {
  ArgParser p = make_parser();
  Args a({"prog", "--bogus"});
  std::string err;
  EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_NE(err.find("--bogus"), std::string::npos);
}

TEST(ArgParser, MissingRequiredValueFails) {
  ArgParser p = make_parser();
  Args a({"prog", "--jobs"});
  std::string err;
  EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(ArgParser, FlagRejectsValue) {
  ArgParser p = make_parser();
  Args a({"prog", "--list=yes"});
  std::string err;
  EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p = make_parser();
  Args a({"prog", "--help", "--bogus"});
  std::string err;
  EXPECT_TRUE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_TRUE(p.help_requested());
}

TEST(ArgParser, HelpTextListsEveryOption) {
  ArgParser p = make_parser();
  const std::string h = p.help();
  EXPECT_NE(h.find("--list"), std::string::npos);
  EXPECT_NE(h.find("--jobs <N>"), std::string::npos);
  EXPECT_NE(h.find("--json[=PATH]"), std::string::npos);
  EXPECT_NE(h.find("--help"), std::string::npos);
  EXPECT_NE(h.find("(default: 0)"), std::string::npos);
}

// --- add_int: typed options validated at parse() time -----------------

ArgParser make_int_parser() {
  ArgParser p("prog", "typed parser");
  p.add_int("jobs", "N", "parallel jobs", 0, 0, 4096);
  p.add_int("skew", "C", "cycle skew", -8, -64, 64);
  return p;
}

TEST(ArgParserInt, ValidValueRoundTrips) {
  for (const auto& words : {std::vector<std::string>{"prog", "--jobs", "8"},
                            std::vector<std::string>{"prog", "--jobs=8"}}) {
    ArgParser p = make_int_parser();
    Args a(words);
    std::string err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err)) << err;
    EXPECT_EQ(p.integer("jobs"), 8);
  }
}

TEST(ArgParserInt, AbsentOptionYieldsRegisteredDefault) {
  ArgParser p = make_int_parser();
  Args a({"prog"});
  std::string err;
  ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err)) << err;
  EXPECT_EQ(p.integer("jobs"), 0);
  EXPECT_EQ(p.integer("skew"), -8);
}

TEST(ArgParserInt, MalformedTextIsAParseErrorNotAnAbort) {
  for (const char* bad : {"abc", "8x", "", "--", "1.5"}) {
    ArgParser p = make_int_parser();
    Args a({"prog", std::string("--jobs=") + bad});
    std::string err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err)) << "'" << bad << "'";
    EXPECT_NE(err.find("expects an integer"), std::string::npos) << err;
    EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
  }
}

TEST(ArgParserInt, OverflowIsAParseError) {
  ArgParser p = make_int_parser();
  Args a({"prog", "--jobs", "99999999999999999999"});  // > INT64_MAX
  std::string err;
  EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(ArgParserInt, RangeIsEnforcedBothEnds) {
  {
    ArgParser p = make_int_parser();
    Args a({"prog", "--jobs", "4097"});
    std::string err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
    EXPECT_NE(err.find("[0, 4096]"), std::string::npos) << err;
  }
  {
    ArgParser p = make_int_parser();
    Args a({"prog", "--skew=-65"});
    std::string err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  }
  {
    ArgParser p = make_int_parser();
    Args a({"prog", "--skew=-64"});  // boundary value is accepted
    std::string err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err)) << err;
    EXPECT_EQ(p.integer("skew"), -64);
  }
}

TEST(ArgParserInt, HelpRendersLikeAValueOption) {
  ArgParser p = make_int_parser();
  const std::string h = p.help();
  EXPECT_NE(h.find("--jobs <N>"), std::string::npos);
  EXPECT_NE(h.find("(default: 0)"), std::string::npos);
}

// parse_int_option: the add_int check, callable by binaries that walk argv
// by hand (armbar-lockver, armbar-opt).
TEST(ParseIntOption, ValidValuesAndBoundsAreAccepted) {
  std::int64_t v = -1;
  std::string err;
  ASSERT_TRUE(parse_int_option("seed", "1234", 0, UINT32_MAX, &v, &err)) << err;
  EXPECT_EQ(v, 1234);
  ASSERT_TRUE(parse_int_option("seed", "0", 0, UINT32_MAX, &v, &err)) << err;
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(parse_int_option("seed", "4294967295", 0, UINT32_MAX, &v, &err))
      << err;
  EXPECT_EQ(v, 4294967295);
}

TEST(ParseIntOption, MalformedTextNamesTheOption) {
  for (const char* bad : {"abc", "2x", "", "1.5"}) {
    std::int64_t v = 7;
    std::string err;
    EXPECT_FALSE(parse_int_option("chaos-seeds", bad, 0, 100, &v, &err))
        << "'" << bad << "'";
    EXPECT_NE(err.find("'--chaos-seeds' expects an integer"),
              std::string::npos)
        << err;
    EXPECT_EQ(v, 7);  // untouched on failure
  }
}

TEST(ParseIntOption, NegativeAndOverflowingValuesAreOutOfRange) {
  for (const char* bad : {"-1", "4294967296", "99999999999999999999"}) {
    std::int64_t v = 7;
    std::string err;
    EXPECT_FALSE(parse_int_option("fuzz", bad, 0, UINT32_MAX, &v, &err))
        << "'" << bad << "'";
    EXPECT_NE(err.find("'--fuzz' value"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range [0, 4294967295]"), std::string::npos)
        << err;
    EXPECT_EQ(v, 7);
  }
}

TEST(ArgParser, MalformedIntegerDies) {
  ArgParser p = make_parser();
  Args a({"prog", "--jobs", "eight"});
  std::string err;
  ASSERT_TRUE(p.parse(a.argc(), a.argv(), &err));
  EXPECT_DEATH(p.integer("jobs", 0), "malformed integer");
}

}  // namespace
}  // namespace armbar::runner
