// Wire-protocol request parsing (src/svc/request.h): malformed JSON,
// schema violations, out-of-range values, hostile inputs — every one must
// map to a structured error code, never abort, and keep the client's id
// for correlation whenever the line parsed far enough to contain one.
#include "svc/request.h"

#include <gtest/gtest.h>

#include <clocale>
#include <string>

#include "common/json.h"

namespace udwn::svc {
namespace {

RequestError expect_error(const std::string& line, ErrorCode code) {
  const ParsedRequest parsed = parse_request(line);
  EXPECT_FALSE(parsed.ok()) << line;
  EXPECT_FALSE(parsed.run.has_value());
  EXPECT_FALSE(parsed.status.has_value());
  if (!parsed.error.has_value()) return {};
  EXPECT_EQ(parsed.error->code, code)
      << line << " -> " << to_string(parsed.error->code) << " ("
      << parsed.error->detail << ")";
  return *parsed.error;
}

TEST(SvcRequest, MalformedJsonIsParseError) {
  for (const char* line :
       {"not json", "{", "[1,2", "{\"a\":}", "{\"a\":1,}", "\"half",
        "{\"a\":+1}", "{\"a\":nulll}", "\x01\x02"}) {
    expect_error(line, ErrorCode::kParseError);
  }
}

TEST(SvcRequest, DeepNestingIsRejectedNotOverflowed) {
  std::string bomb;
  for (int i = 0; i < 20000; ++i) bomb += '[';
  expect_error(bomb, ErrorCode::kParseError);
}

TEST(SvcRequest, NonObjectIsNotObject) {
  expect_error("42", ErrorCode::kNotObject);
  expect_error("[1,2,3]", ErrorCode::kNotObject);
  expect_error("\"run\"", ErrorCode::kNotObject);
  expect_error("null", ErrorCode::kNotObject);
}

TEST(SvcRequest, TypeIsRequiredAndClosed) {
  expect_error("{\"id\":\"x\"}", ErrorCode::kMissingField);
  expect_error("{\"type\":7}", ErrorCode::kBadType);
  expect_error("{\"type\":\"walk\"}", ErrorCode::kBadValue);
}

TEST(SvcRequest, IdSurvivesRejection) {
  const RequestError error = expect_error(
      "{\"type\":\"run\",\"id\":\"req-9\",\"protocol\":\"nope\"}",
      ErrorCode::kBadValue);
  const ParsedRequest parsed = parse_request(
      "{\"type\":\"run\",\"id\":\"req-9\",\"protocol\":\"nope\"}");
  EXPECT_EQ(parsed.id, "req-9");
  EXPECT_NE(error.detail.find("nope"), std::string::npos);
}

TEST(SvcRequest, UnknownFieldsAreRejectedEverywhere) {
  // Top level, topology scope, dynamics scope: strict schema throughout —
  // a typo must never silently select a different experiment.
  expect_error("{\"type\":\"run\",\"trails\":3}", ErrorCode::kUnknownField);
  expect_error(
      "{\"type\":\"run\",\"topology\":{\"kind\":\"lattice\",\"row\":4}}",
      ErrorCode::kUnknownField);
  expect_error(
      "{\"type\":\"run\",\"dynamics\":{\"churn\":0.1}}",
      ErrorCode::kUnknownField);
  expect_error("{\"type\":\"status\",\"verbose\":true}",
               ErrorCode::kUnknownField);
}

TEST(SvcRequest, TopologyFieldsOfOtherKindsAreUnknown) {
  // `rows` belongs to lattice; under uniform_square it is a typo'd schema.
  expect_error(
      "{\"type\":\"run\",\"topology\":{\"kind\":\"uniform_square\","
      "\"rows\":4}}",
      ErrorCode::kUnknownField);
}

TEST(SvcRequest, OutOfRangeValues) {
  expect_error("{\"type\":\"run\",\"trials\":0}", ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"trials\":1048577}",
               ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"trials\":2.5}", ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"trials\":-1}", ErrorCode::kBadValue);
  expect_error(
      "{\"type\":\"run\",\"topology\":{\"kind\":\"uniform_square\","
      "\"n\":1}}",
      ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"epsilon\":1.5}", ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"epsilon\":0}", ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"zeta\":0.5}", ErrorCode::kBadValue);
  expect_error("{\"type\":\"run\",\"deadline_ms\":86400001}",
               ErrorCode::kBadValue);
  expect_error(
      "{\"type\":\"run\",\"dynamics\":{\"churn_rate\":1.01}}",
      ErrorCode::kBadValue);
}

TEST(SvcRequest, WrongTypesAreBadType) {
  expect_error("{\"type\":\"run\",\"trials\":\"three\"}",
               ErrorCode::kBadType);
  expect_error("{\"type\":\"run\",\"topology\":[]}", ErrorCode::kBadType);
  expect_error("{\"type\":\"run\",\"dynamics\":3}", ErrorCode::kBadType);
  expect_error("{\"type\":\"run\",\"id\":17}", ErrorCode::kBadType);
  expect_error("{\"type\":\"run\",\"protocol\":[]}", ErrorCode::kBadType);
}

TEST(SvcRequest, MinimalRunRequestGetsDefaults) {
  const ParsedRequest parsed = parse_request("{\"type\":\"run\"}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.run.has_value());
  EXPECT_EQ(parsed.run->protocol, ProtocolKind::kLocalBcast);
  EXPECT_EQ(parsed.run->model, ModelName::kSinr);
  EXPECT_EQ(parsed.run->topology.kind, TopologyKind::kUniformSquare);
  EXPECT_EQ(parsed.run->topology.n, 32u);
  EXPECT_EQ(parsed.run->trials, 1u);
  EXPECT_EQ(parsed.run->seed, 1u);
  EXPECT_EQ(parsed.run->inject, FaultInjection::kNone);
}

TEST(SvcRequest, FullRunRequestRoundTrips) {
  const ParsedRequest parsed = parse_request(
      "{\"type\":\"run\",\"id\":\"r1\",\"protocol\":\"bcast\","
      "\"model\":\"qudg\",\"epsilon\":0.25,\"zeta\":2.5,"
      "\"topology\":{\"kind\":\"cluster_chain\",\"clusters\":6,"
      "\"per_cluster\":5,\"spacing\":0.55,\"cluster_radius\":0.04},"
      "\"dynamics\":{\"churn_rate\":0.05,\"mobility_speed\":0.01},"
      "\"trials\":12,\"seed\":18446744073709551615,\"max_rounds\":5000,"
      "\"deadline_ms\":2000,\"inject\":\"hang\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.error->detail;
  const RunRequest& run = *parsed.run;
  EXPECT_EQ(run.id, "r1");
  EXPECT_EQ(run.protocol, ProtocolKind::kBcast);
  EXPECT_EQ(run.model, ModelName::kQudg);
  EXPECT_DOUBLE_EQ(run.epsilon, 0.25);
  EXPECT_EQ(run.topology.kind, TopologyKind::kClusterChain);
  EXPECT_EQ(run.topology.n, 30u);
  EXPECT_DOUBLE_EQ(run.dynamics.churn_rate, 0.05);
  EXPECT_EQ(run.trials, 12u);
  // 64-bit seeds survive JSON exactly (integral re-parse in common/json.cpp).
  EXPECT_EQ(run.seed, 18446744073709551615ull);
  EXPECT_EQ(run.max_rounds, 5000u);
  EXPECT_EQ(run.deadline_ms, 2000u);
  EXPECT_EQ(run.inject, FaultInjection::kHang);
}

TEST(SvcRequest, StatusRequestParses) {
  const ParsedRequest parsed =
      parse_request("{\"type\":\"status\",\"id\":\"s\"}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.status.has_value());
  EXPECT_EQ(parsed.status->id, "s");
}

TEST(SvcRequest, EncodersEmitValidJsonWithEscapes) {
  TrialRecord record;
  record.trial = 3;
  record.seed = 0xffffffffffffffffull;
  record.status = "failed";
  record.error = "newline\nquote\" backslash\\";
  const std::string line = encode_trial("id \"x\"", record);
  std::string error;
  const auto parsed = Json::parse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error << ": " << line;
  EXPECT_EQ(parsed->find("id")->as_string(), "id \"x\"");
  EXPECT_EQ(parsed->find("seed")->as_uint64(), 0xffffffffffffffffull);
  EXPECT_EQ(parsed->find("error")->as_string(),
            "newline\nquote\" backslash\\");

  for (const std::string& encoded :
       {encode_accepted("a", 3),
        encode_rejected("b", RequestError{ErrorCode::kQueueFull, "full"}),
        encode_progress("c", 1, 10), encode_summary("d", RunSummary{})}) {
    EXPECT_TRUE(Json::parse(encoded, &error).has_value())
        << error << ": " << encoded;
  }
}

TEST(SvcJson, NumberParsingIsLocaleIndependent) {
  // Regression: number parsing used to go through std::strtod, which reads
  // LC_NUMERIC — under a comma-decimal locale (de_DE and friends) it stops
  // at the '.' of "1.5" and the gateway rejected every fractional number.
  // std::from_chars is locale-independent by specification. The comma
  // locale is only present on some systems; skip (don't pass vacuously)
  // when none is installed.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous ? previous : "C";
  const char* comma_locale = nullptr;
  for (const char* candidate :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr) {
      comma_locale = candidate;
      break;
    }
  }
  if (comma_locale == nullptr) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }

  std::string error;
  const auto parsed = Json::parse("{\"radius\": 1.5, \"rate\": -2.5e-1}",
                                  &error);
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_TRUE(parsed.has_value()) << error << " under " << comma_locale;
  ASSERT_TRUE(parsed->is_object());
  const Json* radius = parsed->find("radius");
  ASSERT_NE(radius, nullptr);
  EXPECT_DOUBLE_EQ(radius->as_double(), 1.5);
  const Json* rate = parsed->find("rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->as_double(), -0.25);
}

TEST(SvcRequest, ErrorCodeVocabularyIsStable) {
  // The wire strings are API: clients and the CI smoke harness match them.
  EXPECT_STREQ(to_string(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(to_string(ErrorCode::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(ErrorCode::kShuttingDown), "shutting_down");
  EXPECT_STREQ(to_string(ErrorCode::kLineTooLong), "line_too_long");
  EXPECT_STREQ(to_string(ErrorCode::kTruncated), "truncated");
}

}  // namespace
}  // namespace udwn::svc
