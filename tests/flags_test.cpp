// Tests of the CLI flag parser.
#include <gtest/gtest.h>

#include "common/flags.h"

namespace elan {
namespace {

Flags make_flags() {
  Flags f;
  f.define("policy", "E-BF", "scheduling policy");
  f.define("seed", "2020", "random seed");
  f.define("ratio", "0.5", "a ratio");
  f.define("verbose", "false", "chatty output");
  return f;
}

std::vector<std::string> parse(Flags& f, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return f.parse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, DefaultsApply) {
  auto f = make_flags();
  parse(f, {});
  EXPECT_EQ(f.get("policy"), "E-BF");
  EXPECT_EQ(f.get_int("seed"), 2020);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_FALSE(f.has("policy"));
}

TEST(Flags, EqualsForm) {
  auto f = make_flags();
  parse(f, {"--policy=FIFO", "--seed=7"});
  EXPECT_EQ(f.get("policy"), "FIFO");
  EXPECT_EQ(f.get_int("seed"), 7);
  EXPECT_TRUE(f.has("policy"));
}

TEST(Flags, SpaceForm) {
  auto f = make_flags();
  parse(f, {"--policy", "BF", "--ratio", "0.75"});
  EXPECT_EQ(f.get("policy"), "BF");
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.75);
}

TEST(Flags, BooleanForm) {
  auto f = make_flags();
  parse(f, {"--verbose", "--seed=1"});
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, Positionals) {
  auto f = make_flags();
  const auto rest = parse(f, {"input.csv", "--seed=1", "more"});
  EXPECT_EQ(rest, (std::vector<std::string>{"input.csv", "more"}));
}

TEST(Flags, UnknownFlagThrows) {
  auto f = make_flags();
  EXPECT_THROW(parse(f, {"--bogus=1"}), InvalidArgument);
}

TEST(Flags, TypeErrorsThrow) {
  auto f = make_flags();
  parse(f, {"--seed=notanumber"});
  EXPECT_THROW(f.get_int("seed"), InvalidArgument);
  parse(f, {"--verbose=maybe"});
  EXPECT_THROW(f.get_bool("verbose"), InvalidArgument);
}

TEST(Flags, HelpRequested) {
  auto f = make_flags();
  parse(f, {"--help"});
  EXPECT_TRUE(f.help_requested());
  const auto usage = f.usage("prog");
  EXPECT_NE(usage.find("--policy"), std::string::npos);
  EXPECT_NE(usage.find("scheduling policy"), std::string::npos);
}

TEST(Flags, DuplicateDefinitionThrows) {
  Flags f;
  f.define("x", "1", "");
  EXPECT_THROW(f.define("x", "2", ""), InvalidArgument);
}

TEST(Flags, UnknownGetThrows) {
  auto f = make_flags();
  EXPECT_THROW(f.get("nonexistent"), NotFound);
}

// The checked parser takes the whole text or nothing.
TEST(Flags, ParseIntChecksTheWholeTextAndTheRange) {
  EXPECT_EQ(parse_int("64", 1, 64, "n"), 64);
  EXPECT_EQ(parse_int("-3", -5, 5, "n"), -3);
  for (const char* bad : {"", "8x", "x8", " 8", "+8", "65", "0", "1e1"}) {
    EXPECT_THROW(parse_int(bad, 1, 64, "n"), InvalidArgument) << "'" << bad << "'";
  }
  EXPECT_DOUBLE_EQ(parse_double("1e-3", 0.0, 1.0, "x"), 1e-3);
  for (const char* bad : {"", "12x", "abc", "nan", "inf", "-1"}) {
    EXPECT_THROW(parse_double(bad, 0.0, 1e9, "x"), InvalidArgument) << "'" << bad << "'";
  }
}

// Worker-count lists (elan_launch --scale): every item in [1, 64].
TEST(Flags, ParseIntListRejectsBadItems) {
  EXPECT_EQ(parse_int_list("", 1, 64, "--scale"), std::vector<std::int64_t>{});
  EXPECT_EQ(parse_int_list("8,4", 1, 64, "--scale"), (std::vector<std::int64_t>{8, 4}));
  EXPECT_EQ(parse_int_list("1,64", 1, 64, "--scale"), (std::vector<std::int64_t>{1, 64}));
  for (const char* bad : {"-1", "0", "65", "8,,4", "8x", "8,", ",8", "8,-1"}) {
    EXPECT_THROW(parse_int_list(bad, 1, 64, "--scale"), InvalidArgument) << "'" << bad << "'";
  }
}

// Seeds: text that is wholly a decimal or 0x-hex number is that number; any
// other text, such as a commit-hash prefix that starts with digits, is hashed
// (FNV-1a), so it never collapses onto the number its leading digits spell.
TEST(Flags, ParseSeedTakesWholeNumbersAndHashesTheRest) {
  EXPECT_EQ(parse_seed("12", "--seed"), 12u);
  EXPECT_EQ(parse_seed("0x2a", "--seed"), 42u);
  EXPECT_EQ(parse_seed("0012", "--seed"), 12u);  // decimal, not octal
  EXPECT_EQ(parse_seed("18446744073709551615", "--seed"), 18446744073709551615ULL);
  EXPECT_EQ(parse_seed("5caa3f725bd3", "--seed"), 17189454777791455289ULL);
  EXPECT_EQ(parse_seed("001242892c18", "--seed"), 17072947898726019873ULL);
  EXPECT_EQ(parse_seed("12x", "--seed"), 5003493791934653878ULL);
  EXPECT_EQ(parse_seed("x12", "--seed"), 13762967585405986768ULL);
  EXPECT_EQ(parse_seed("", "--seed"), 14695981039346656037ULL);  // the FNV offset basis
  EXPECT_THROW(parse_seed("18446744073709551616", "--seed"), InvalidArgument);
}

}  // namespace
}  // namespace elan
