#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <variant>

namespace e2ebench {

using modelardb::Result;
using modelardb::Status;
using modelardb::Tid;
using modelardb::query::Cell;
using modelardb::query::QueryResult;

namespace {

// Relative slack for float storage and double accumulation order.
constexpr double kRoundingSlack = 1e-6;

double CellNumber(const Cell& cell) {
  if (const auto* i = std::get_if<int64_t>(&cell)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&cell)) return *d;
  return std::nan("");
}

bool Within(double got, double truth, double tolerance) {
  return std::fabs(got - truth) <= tolerance;
}

std::string Describe(const std::string& where, Tid tid, const char* what,
                     double got, double truth) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: tid %d %s %.17g, expected %.17g",
                where.c_str(), tid, what, got, truth);
  return buf;
}

}  // namespace

bool Gate::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < kMaxMessages) messages_.push_back(what);
  }
  return ok;
}

void Gate::Merge(const Gate& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& message : other.messages_) {
    if (messages_.size() < kMaxMessages) messages_.push_back(message);
  }
}

void TidTruth::Add(double value) {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  abs_sum += std::fabs(value);
  abs_max = std::max(abs_max, std::fabs(value));
}

Result<std::map<Tid, TidAnswer>> ReadTidAnswers(const QueryResult& result) {
  std::map<Tid, TidAnswer> answers;
  for (const auto& row : result.rows) {
    if (row.size() != 5 || !std::holds_alternative<int64_t>(row[0])) {
      return Status::InvalidArgument("expected Tid, COUNT, SUM, MIN, MAX rows");
    }
    TidAnswer answer;
    answer.count = static_cast<int64_t>(std::llround(CellNumber(row[1])));
    answer.sum = CellNumber(row[2]);
    answer.min = CellNumber(row[3]);
    answer.max = CellNumber(row[4]);
    answers[static_cast<Tid>(std::get<int64_t>(row[0]))] = answer;
  }
  return answers;
}

void CheckCounts(const std::map<Tid, int64_t>& expected,
                 const std::map<Tid, TidAnswer>& got, const std::string& where,
                 Gate* gate) {
  for (const auto& [tid, count] : expected) {
    auto it = got.find(tid);
    if (it == got.end()) {
      gate->Check(count == 0, where + ": tid " + std::to_string(tid) +
                                  " missing from the answer");
      continue;
    }
    gate->Check(it->second.count == count,
                Describe(where, tid, "COUNT", static_cast<double>(
                                                  it->second.count),
                         static_cast<double>(count)));
  }
}

void CheckAggregates(const std::map<Tid, TidTruth>& truth,
                     const std::map<Tid, TidAnswer>& got,
                     double bound_percent, const std::string& where,
                     Gate* gate) {
  const double relative = bound_percent / 100.0 + kRoundingSlack;
  for (const auto& [tid, t] : truth) {
    auto it = got.find(tid);
    if (it == got.end()) {
      gate->Check(false, where + ": tid " + std::to_string(tid) +
                             " missing from the answer");
      continue;
    }
    const TidAnswer& a = it->second;
    gate->Check(a.count == t.count,
                Describe(where, tid, "COUNT", static_cast<double>(a.count),
                         static_cast<double>(t.count)));
    gate->Check(Within(a.sum, t.sum, relative * t.abs_sum + kRoundingSlack),
                Describe(where, tid, "SUM", a.sum, t.sum));
    const double extreme_tolerance = relative * t.abs_max + kRoundingSlack;
    gate->Check(Within(a.min, t.min, extreme_tolerance),
                Describe(where, tid, "MIN", a.min, t.min));
    gate->Check(Within(a.max, t.max, extreme_tolerance),
                Describe(where, tid, "MAX", a.max, t.max));
  }
}

void CheckSegmentCount(int64_t before, int64_t after, Gate* gate) {
  gate->Check(before == after, "segments after restart " +
                                   std::to_string(after) + ", before " +
                                   std::to_string(before));
}

void CheckProbes(const std::vector<std::string>& before,
                 const std::vector<std::string>& after,
                 const std::string& where, Gate* gate) {
  if (!gate->Check(before.size() == after.size(),
                   where + ": probe count differs")) {
    return;
  }
  for (size_t i = 0; i < before.size(); ++i) {
    gate->Check(before[i] == after[i],
                where + ": probe " + std::to_string(i) + " answer differs");
  }
}

std::string Digest(const QueryResult& result) {
  std::string out;
  char buf[64];
  for (const auto& row : result.rows) {
    for (const Cell& cell : row) {
      if (const auto* i = std::get_if<int64_t>(&cell)) {
        out += std::to_string(*i);
      } else if (const auto* d = std::get_if<double>(&cell)) {
        std::snprintf(buf, sizeof(buf), "%a", *d);
        out += buf;
      } else {
        out += std::get<std::string>(cell);
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

uint64_t Fingerprint(const QueryResult& result) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  for (const auto& row : result.rows) {
    for (const Cell& cell : row) {
      const size_t kind = cell.index();
      mix(&kind, sizeof(kind));
      if (const auto* i = std::get_if<int64_t>(&cell)) {
        mix(i, sizeof(*i));
      } else if (const auto* d = std::get_if<double>(&cell)) {
        mix(d, sizeof(*d));
      } else {
        const std::string& s = std::get<std::string>(cell);
        mix(s.data(), s.size());
      }
    }
  }
  return hash;
}

}  // namespace e2ebench
