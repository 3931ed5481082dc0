// The wire protocol table, pinned three ways: a golden corpus of request
// lines with their exact verdicts (encode_request bytes or the bad_request
// response), a seeded parse(encode(r)) == r round trip over every verb, and
// the field tables of docs/service.md checked against the table itself.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/wire.h"
#include "util/rng.h"
#include "util/strings.h"

namespace coolopt::service {
namespace {

std::string source_file(const char* relative) {
  std::ifstream in(std::string(COOLOPT_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// What the service decides for one request line.
std::string verdict(const std::string& line) {
  WireRequest request;
  std::string error;
  if (parse_request(line, request, error)) {
    return "= " + encode_request(request);
  }
  return "! " + encode_error(request.id, request.verb, kErrBadRequest, error);
}

TEST(WireTable, GoldenCorpusVerdictsAreByteIdentical) {
  const std::vector<std::string> lines =
      lines_of(source_file("tests/service/data/wire_golden.txt"));
  size_t first = 0;
  while (first < lines.size() && lines[first].rfind('#', 0) == 0) ++first;
  ASSERT_EQ((lines.size() - first) % 2, 0u);
  size_t cases = 0;
  for (size_t i = first; i + 1 < lines.size(); i += 2, ++cases) {
    EXPECT_EQ(verdict(lines[i]), lines[i + 1]) << "request: " << lines[i];
  }
  EXPECT_GT(cases, 1500u);
}

/// A double the encoder's %.12g writes back exactly.
double wire_double(util::Rng& rng, double lo, double hi) {
  return std::strtod(util::strf("%.12g", rng.uniform(lo, hi)).c_str(), nullptr);
}

/// A random request using only what `verb` carries, every value valid.
WireRequest random_request(util::Rng& rng, Verb verb) {
  WireRequest r;
  r.id = rng.next_u64() % 9007199254740992ULL;
  r.verb = verb;
  r.priority = static_cast<Priority>(rng.uniform_int(0, 2));
  const auto maybe = [&] { return rng.uniform_int(0, 1) == 1; };
  const auto count = [&] { return static_cast<size_t>(rng.uniform_int(0, 3)); };
  const auto index = [&] {
    return static_cast<size_t>(rng.uniform_int(0, 99));
  };
  switch (verb) {
    case Verb::kPlan:
    case Verb::kFleetplan:
      r.scenario = rng.uniform_int(1, 8);
      if (maybe()) {
        r.load_files_s = wire_double(rng, -10.0, 5000.0);
      } else {
        r.load_pct = wire_double(rng, -10.0, 300.0);
      }
      for (size_t k = count(); k > 0; --k) {
        if (verb == Verb::kPlan) {
          r.quarantined.push_back(index());
        } else {
          r.fleet_quarantined.push_back({index() % 8, index()});
          r.down_shards.push_back(index() % 8);
        }
      }
      if (maybe()) r.trace_id = rng.next_u64() % 1000000;
      if (maybe()) r.deadline_ms = 1 + rng.next_u64() % 60000;
      break;
    case Verb::kMeasure:
      r.scenario = rng.uniform_int(1, 8);
      r.load_pct = wire_double(rng, 0.0, 100.0);
      break;
    case Verb::kSweep:
      for (size_t k = count(); k > 0; --k) {
        r.scenarios.push_back(rng.uniform_int(1, 8));
      }
      for (size_t k = count(); k > 0; --k) {
        r.load_pcts.push_back(wire_double(rng, 0.0, 100.0));
      }
      break;
    case Verb::kInject:
      r.fault = maybe() ? "fan-failure" : "crac \"degraded\"\\\n";
      r.defense = maybe() ? "none" : "watchdog";
      r.load_pct = wire_double(rng, 0.0, 100.0);
      r.duration_s = wire_double(rng, 1e-3, kMaxInjectDurationS);
      r.control_period_s = wire_double(rng, 1e-3, 600.0);
      break;
    case Verb::kSubscribe:
      r.interval_ms = 1 + rng.next_u64() % 100000;
      r.ticks = maybe() ? 0 : rng.next_u64() % 100;
      break;
    case Verb::kPing:
    case Verb::kHealth:
      break;
  }
  return r;
}

void expect_same(const WireRequest& a, const WireRequest& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.verb, b.verb);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.load_pct, b.load_pct);
  EXPECT_EQ(a.load_files_s, b.load_files_s);
  EXPECT_EQ(a.quarantined, b.quarantined);
  ASSERT_EQ(a.fleet_quarantined.size(), b.fleet_quarantined.size());
  for (size_t i = 0; i < a.fleet_quarantined.size(); ++i) {
    EXPECT_EQ(a.fleet_quarantined[i].shard, b.fleet_quarantined[i].shard);
    EXPECT_EQ(a.fleet_quarantined[i].machine, b.fleet_quarantined[i].machine);
  }
  EXPECT_EQ(a.down_shards, b.down_shards);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.load_pcts, b.load_pcts);
  EXPECT_EQ(a.fault, b.fault);
  EXPECT_EQ(a.defense, b.defense);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.control_period_s, b.control_period_s);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.interval_ms, b.interval_ms);
  EXPECT_EQ(a.ticks, b.ticks);
}

TEST(WireTable, ParseOfEncodeGivesBackEveryValidRequest) {
  util::Rng rng(15);
  for (int round = 0; round < 200; ++round) {
    for (size_t v = 0; v < kVerbCount; ++v) {
      const WireRequest request = random_request(rng, static_cast<Verb>(v));
      const std::string line = encode_request(request);
      WireRequest parsed;
      std::string error;
      ASSERT_TRUE(parse_request(line, parsed, error)) << error << ": " << line;
      SCOPED_TRACE(line);
      expect_same(parsed, request);
    }
  }
}

/// Cells of a markdown table row, trimmed: "| a | b |" -> {"a", "b"}.
std::vector<std::string> cells(const std::string& row) {
  std::vector<std::string> out;
  for (const std::string& cell : util::split(row, '|')) {
    out.emplace_back(util::trim(cell));
  }
  return std::vector<std::string>(out.begin() + 1, out.end() - 1);
}

TEST(WireTable, ServiceDocsListEachVerbsFieldsInTableOrder) {
  const std::vector<std::string> lines =
      lines_of(source_file("docs/service.md"));
  for (size_t v = 0; v < kVerbCount; ++v) {
    const Verb verb = static_cast<Verb>(v);
    SCOPED_TRACE(to_string(verb));
    const std::string heading = util::strf("**`%s`** —", to_string(verb));
    size_t at = 0;
    while (at < lines.size() && lines[at].rfind(heading, 0) != 0) ++at;
    ASSERT_LT(at, lines.size()) << "no section " << heading;
    const std::vector<RequestField> fields = request_fields(verb);
    if (fields.empty()) {
      EXPECT_NE(lines[at].find("no further fields"), std::string::npos);
      continue;
    }
    while (at < lines.size() && lines[at].rfind("| Field |", 0) != 0) ++at;
    ASSERT_LT(at + 1, lines.size()) << "no field table";
    at += 2;  // header and separator rows
    size_t required = 0;
    for (const RequestField& f : fields) {
      required += f.presence == Presence::kRequired;
    }
    size_t i = 0;
    for (; at < lines.size() && lines[at].rfind('|', 0) == 0; ++at, ++i) {
      const std::vector<std::string> row = cells(lines[at]);
      ASSERT_GE(row.size(), 3u) << lines[at];
      ASSERT_LT(i, fields.size()) << "extra row " << lines[at];
      EXPECT_EQ(row[0], util::strf("`%s`", fields[i].name));
      const std::string& column = row[2];
      switch (fields[i].presence) {
        case Presence::kRequired:
          EXPECT_EQ(column, required == 1 ? "yes" : "exactly one of the two")
              << fields[i].name;
          break;
        case Presence::kDefault:
          EXPECT_EQ(column.rfind("no (default ", 0), 0u) << fields[i].name;
          break;
        case Presence::kOptional:
          EXPECT_EQ(column.rfind("no", 0), 0u) << fields[i].name;
          break;
      }
    }
    EXPECT_EQ(i, fields.size()) << "missing rows";
  }
}

}  // namespace
}  // namespace coolopt::service
