// Minimal JSON emission helpers shared by the telemetry snapshot exporter
// and the bench BENCH_*.json reports.
//
// This is a *writer* only — no parsing, no DOM. JsonWriter produces compact,
// well-formed JSON with correct comma placement (safe for empty objects and
// arrays) and full string escaping, which is all the repo needs and keeps the
// exporters free of hand-rolled stringstream concatenation bugs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace photon::util {

/// Escape a string for inclusion inside JSON double quotes (quotes are NOT
/// added). Handles quote, backslash, and all control characters (\uXXXX).
std::string json_escape(std::string_view s);

/// Streaming JSON writer with automatic comma handling.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("bench_latency");
///   w.key("metrics").begin_object(); ... w.end_object();
///   w.end_object();
///   std::string out = w.str();
///
/// Scalars: strings (escaped), bool, integers, doubles (finite doubles are
/// printed with enough digits to round-trip; NaN/Inf are emitted as null,
/// which keeps the output well-formed JSON).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or container open.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double d);
  JsonWriter& null();

  /// Verbatim pre-rendered JSON fragment used as one value (caller
  /// guarantees validity — e.g. splicing one writer's output into another).
  JsonWriter& raw(std::string_view json);

  const std::string& str() const noexcept { return out_; }

 private:
  void pre_value();
  std::string out_;
  /// One flag per open container: true once it holds at least one element.
  std::vector<bool> has_elem_;
  bool after_key_ = false;
};

}  // namespace photon::util
