// Validator coverage for the scenario schema (docs/SCENARIOS.md): every
// malformed-fixture class — unknown field, wrong type, out-of-range
// value, an integer a double cannot hold, dangling node reference — must
// fail with the exact dotted field-path error string, and every valid
// fixture and corpus file must round-trip through ScenarioToJson
// byte-stably.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "scenario/scenario.h"
#include "tests/test_util.h"

namespace tornado {
namespace scenario {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(TORNADO_SCENARIO_FIXTURES) + "/" + name;
}

/// Loads a fixture expected to FAIL validation; returns its error lines.
std::vector<std::string> ErrorsOf(const std::string& name) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(LoadScenarioFile(Fixture(name), &scenario, &errors))
      << name << " unexpectedly validated";
  return errors;
}

bool Contains(const std::vector<std::string>& errors,
              const std::string& want) {
  return std::find(errors.begin(), errors.end(), want) != errors.end();
}

std::string Join(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += "  " + e + "\n";
  return out;
}

TEST(ScenarioValidatorTest, UnknownFieldIsRejectedWithItsPath) {
  const auto errors = ErrorsOf("bad_unknown_field.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.ratee: unknown field"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, WrongTypeNamesTheExpectedType) {
  const auto errors = ErrorsOf("bad_wrong_type.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.rate: expected number"))
      << Join(errors);
  EXPECT_TRUE(Contains(errors, "scenario.drive.pause_ingest: "
                               "expected boolean"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, OutOfRangeValuesNameTheBound) {
  const auto errors = ErrorsOf("bad_out_of_range.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.rate: must be > 0"))
      << Join(errors);
  EXPECT_TRUE(Contains(errors, "scenario.consistency.delay_bound: "
                               "must be in [1, 1000000]"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, DanglingNodeReferenceIsBoundsChecked) {
  const auto errors = ErrorsOf("bad_dangling_node.json");
  EXPECT_TRUE(Contains(
      errors,
      "scenario.timeline[0].node: processor index 12 out of range "
      "(cluster has 8 processors)"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, MissingWorkloadIsRequired) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(ParseScenarioText(R"({"name": "x"})", &scenario, &errors));
  EXPECT_TRUE(Contains(errors, "scenario.workload: missing required field"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, MalformedJsonReportsLineAndColumn) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(ParseScenarioText("{\n  \"name\": }", &scenario, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("JSON parse error at 2:"), std::string::npos)
      << errors[0];
}

TEST(ScenarioValidatorTest, HugeIntegersAreRefusedNotRounded) {
  // A JSON number is a double: above 2^53 - 1 it no longer holds every
  // integer, and 1e30 does not fit a uint64_t at all.
  const auto errors = ErrorsOf("bad_huge_integer.json");
  for (const char* want :
       {"scenario.seed: must be <= 9007199254740991",
        "scenario.workload.stream_seed: must be <= 9007199254740991",
        "scenario.drive.warmup_tuples: must be <= 9007199254740991"}) {
    EXPECT_TRUE(Contains(errors, want)) << want << "\n" << Join(errors);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ScenarioValidatorTest, ValidScenarioRoundTripsByteStably) {
  for (const char* name : {"mini_sssp.json", "every_field.json"}) {
    Scenario scenario;
    std::vector<std::string> errors;
    ASSERT_TRUE(LoadScenarioFile(Fixture(name), &scenario, &errors))
        << name << ":\n" << Join(errors);
    const std::string once = JsonWrite(ScenarioToJson(scenario));

    Scenario reparsed;
    ASSERT_TRUE(ParseScenarioText(once, &reparsed, &errors)) << Join(errors);
    const std::string twice = JsonWrite(ScenarioToJson(reparsed));
    EXPECT_EQ(once, twice) << name;
  }
  // every_field.json sets every field off its default, uses every action
  // kind, every cost key, chaos, provenance and par_sim, and is stored in
  // the writer's canonical form, so its bytes pin each writer row.
  Scenario scenario;
  std::vector<std::string> errors;
  ASSERT_TRUE(
      LoadScenarioFile(Fixture("every_field.json"), &scenario, &errors));
  EXPECT_EQ(JsonWrite(ScenarioToJson(scenario)) + "\n",
            ReadFile(Fixture("every_field.json")));
}

TEST(ScenarioValidatorTest, EveryCorpusScenarioValidates) {
  // The checked-in corpus must stay loadable and round-trip byte-stably
  // (write, parse, write) — the ctest registration runs each file, but
  // this is the fast-feedback version.
  std::vector<std::string> paths = {Fixture("mini_sssp.json"),
                                    Fixture("chaos_commit_regression.json")};
  for (const auto& entry :
       std::filesystem::directory_iterator(TORNADO_SCENARIO_CORPUS)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  ASSERT_GT(paths.size(), 2u);
  for (const std::string& path : paths) {
    Scenario scenario;
    std::vector<std::string> errors;
    EXPECT_TRUE(LoadScenarioFile(path, &scenario, &errors))
        << path << ":\n" << Join(errors);
    const std::string once = JsonWrite(ScenarioToJson(scenario));
    Scenario reparsed;
    ASSERT_TRUE(ParseScenarioText(once, &reparsed, &errors))
        << path << ":\n" << Join(errors);
    EXPECT_EQ(once, JsonWrite(ScenarioToJson(reparsed))) << path;
  }
}

}  // namespace
}  // namespace scenario
}  // namespace tornado
