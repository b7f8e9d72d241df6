#include "obs/trace_report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/table.h"

namespace elan::obs {

namespace {

// --- Minimal JSON parser ----------------------------------------------------
//
// Recursive descent over the full JSON grammar (objects, arrays, strings,
// numbers, booleans, null). The tracer's output is a strict subset, but the
// parser accepts any conforming document so reports also work on traces from
// other producers (or hand-edited files). A trace file is outside input, so
// nesting is bounded: the tracer's own output nests four levels deep, and a
// deeper document is rejected before the recursion can exhaust the stack.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    ELAN_REQUIRE(pos_ == text_.size(), "trace json: trailing content at offset " +
                                           std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("trace json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++depth_;
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Traces are ASCII in practice; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  static constexpr int kMaxDepth = 64;  // nested arrays and objects

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

double number_field(const JsonValue& event, const std::string& key, double fallback) {
  const JsonValue* v = event.find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number : fallback;
}

std::string string_field(const JsonValue& event, const std::string& key) {
  const JsonValue* v = event.find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->string : std::string();
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - std::floor(rank);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

TraceSummary summarize_trace_json(const std::string& json_text) {
  JsonParser parser(json_text);
  const JsonValue root = parser.parse();

  const JsonValue* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    // The format also allows a bare event array.
    events = &root;
  } else if (root.kind == JsonValue::Kind::kObject) {
    events = root.find("traceEvents");
  }
  require(events != nullptr && events->kind == JsonValue::Kind::kArray,
          "trace json: no traceEvents array");

  struct Group {
    std::vector<double> durs_ms;
    double total_ms = 0;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;

  TraceSummary summary;
  double min_ts = 0, max_end = 0;
  bool any_span = false;
  for (const JsonValue& e : events->array) {
    if (e.kind != JsonValue::Kind::kObject) continue;
    const std::string ph = string_field(e, "ph");
    if (ph == "i" || ph == "I") {
      ++summary.instants;
      continue;
    }
    if (ph == "C") {
      ++summary.counter_samples;
      continue;
    }
    if (ph != "X") continue;
    ++summary.spans;
    const double ts = number_field(e, "ts", 0);
    const double dur = number_field(e, "dur", 0);
    const std::string cat = string_field(e, "cat");
    const std::string name = string_field(e, "name");
    if (!any_span || ts < min_ts) min_ts = ts;
    if (!any_span || ts + dur > max_end) max_end = ts + dur;
    any_span = true;
    auto& g = groups[{cat, name}];
    g.durs_ms.push_back(dur / 1000.0);
    g.total_ms += dur / 1000.0;
    if (cat == "adjustment" && name == "adjustment") summary.adjustment_ms += dur / 1000.0;
  }
  summary.wall_ms = any_span ? (max_end - min_ts) / 1000.0 : 0;

  for (auto& [key, g] : groups) {
    std::sort(g.durs_ms.begin(), g.durs_ms.end());
    TraceSummaryRow row;
    row.category = key.first;
    row.name = key.second;
    row.count = g.durs_ms.size();
    row.total_ms = g.total_ms;
    row.p50_ms = percentile_sorted(g.durs_ms, 50);
    row.p99_ms = percentile_sorted(g.durs_ms, 99);
    row.max_ms = g.durs_ms.back();
    if (summary.adjustment_ms > 0) row.adjustment_share = g.total_ms / summary.adjustment_ms;
    summary.rows.push_back(std::move(row));
  }
  std::sort(summary.rows.begin(), summary.rows.end(),
            [](const TraceSummaryRow& a, const TraceSummaryRow& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return std::tie(a.category, a.name) < std::tie(b.category, b.name);
            });
  return summary;
}

TraceSummary summarize_trace_file(const std::string& path) {
  std::ifstream in(path);
  ELAN_REQUIRE(in.good(), "trace report: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return summarize_trace_json(buffer.str());
}

std::string render_trace_summary(const TraceSummary& summary,
                                 const std::string& category_filter) {
  std::ostringstream os;
  os.precision(6);
  os << "spans: " << summary.spans << "  instants: " << summary.instants
     << "  counter samples: " << summary.counter_samples << "\n";
  os << "trace wall span: " << summary.wall_ms << " ms\n";
  if (summary.adjustment_ms > 0) {
    os << "adjustment critical path: " << summary.adjustment_ms
       << " ms (share column is relative to it; >1 means overlapping spans)\n";
  } else {
    os << "no adjustment span in this trace (share column unavailable)\n";
  }
  os << "\n";

  Table table({"category", "span", "count", "total ms", "p50 ms", "p99 ms", "max ms",
               "adj share"});
  auto fmt = [](double v) {
    std::ostringstream cell;
    cell.precision(4);
    cell << std::fixed << v;
    return cell.str();
  };
  for (const auto& row : summary.rows) {
    if (!category_filter.empty() && row.category != category_filter) continue;
    table.add(row.category, row.name, static_cast<unsigned long long>(row.count),
              fmt(row.total_ms), fmt(row.p50_ms), fmt(row.p99_ms), fmt(row.max_ms),
              row.adjustment_share < 0 ? std::string("-")
                                       : fmt(row.adjustment_share * 100.0) + "%");
  }
  os << table.to_string();
  return os.str();
}

}  // namespace elan::obs
