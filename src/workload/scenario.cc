#include "workload/scenario.h"

#include <cctype>
#include <charconv>
#include <map>

namespace longlook::workload {

namespace {

// Scenario byte counts are capped at 1 TB per field: large enough for any
// paper-scale workload. The caps bound one transaction, not the repeat x
// page x entry products, so validate() also rejects a scenario whose uint64
// byte totals would wrap.
constexpr std::uint64_t kMaxBytesField = 1'000'000'000'000ULL;
constexpr std::uint64_t kMaxRepeat = 1'000'000ULL;
constexpr std::size_t kMaxEntries = 10'000;

struct NamedGraph {
  const char* name;
  PageGraph graph;
};

// The paper's Table 2 object-size/count axes, by name.
constexpr NamedGraph kNamedGraphs[] = {
    {"small", {1, 10 * 1024}},        // Fig. 6a leftmost column
    {"medium", {1, 1024 * 1024}},     //
    {"large", {1, 10 * 1024 * 1024}},  //
    {"many_small", {100, 10 * 1024}},  // Fig. 6b 100-object column
};

// Cursor over the scenario text. Columns are 1-based byte offsets.
class Parser {
 public:
  Parser(std::string_view text, std::string_view label)
      : text_(text), label_(label) {}

  ParseResult run() {
    ScenarioSpec spec;
    skip_ws();
    while (!at_end()) {
      StreamSpec entry;
      entry_cols_.push_back(pos_ + 1);  // the entry's '*'
      if (!parse_entry(entry)) return fail();
      spec.streams.push_back(std::move(entry));
      if (spec.streams.size() > kMaxEntries) {
        error_here("too many entries (limit " + std::to_string(kMaxEntries) +
                   ")");
        return fail();
      }
      skip_ws();
    }
    if (spec.streams.empty()) {
      error(1, "empty scenario");
      return fail();
    }
    if (!validate(spec)) return fail();
    ParseResult out;
    out.spec = std::move(spec);
    return out;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // Records the first error only (subsequent calls are no-ops), with a
  // 1-based column.
  void error(std::size_t at_offset, const std::string& message) {
    if (!error_.empty()) return;
    error_ = std::string(label_) + ":" + std::to_string(at_offset) + ": " +
             message;
  }
  void error_here(const std::string& message) { error(pos_ + 1, message); }

  ParseResult fail() {
    ParseResult out;
    out.error = error_;
    return out;
  }

  bool expect(char c, const char* what) {
    skip_ws();
    if (peek() != c) {
      error_here(std::string("expected '") + c + "' " + what + ", got " +
                 describe_here());
      return false;
    }
    ++pos_;
    return true;
  }

  std::string describe_here() const {
    if (at_end()) return "end of input";
    return std::string("'") + text_[pos_] + "'";
  }

  bool parse_uint(std::uint64_t& out, const char* what, std::uint64_t max) {
    skip_ws();
    const std::size_t start = pos_;
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') {
      ++end;
    }
    if (end == start) {
      error_here(std::string("expected ") + what + ", got " +
                 describe_here());
      return false;
    }
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + end, out);
    if (res.ec == std::errc::result_out_of_range || out > max) {
      error(start + 1, std::string(what) + " '" +
                           std::string(text_.substr(start, end - start)) +
                           "' out of range (limit " + std::to_string(max) +
                           ")");
      return false;
    }
    pos_ = end;
    return true;
  }

  bool parse_entry(StreamSpec& entry) {
    if (!expect('*', "to begin an entry")) return false;
    skip_ws();
    const std::size_t repeat_col = pos_ + 1;
    if (!parse_uint(entry.repeat, "repeat count", kMaxRepeat)) return false;
    if (entry.repeat == 0) {
      error(repeat_col, "repeat count must be >= 1");
      return false;
    }
    if (!expect(':', "after repeat count")) return false;
    if (!parse_uint(entry.stream_id, "stream id", UINT64_MAX / 2)) {
      return false;
    }
    if (!expect(':', "after stream id")) return false;
    skip_ws();
    if (peek() == '-') {
      ++pos_;
    } else {
      std::uint64_t parent = 0;
      if (!parse_uint(parent, "start-after stream id (or '-')",
                      UINT64_MAX / 2)) {
        return false;
      }
      entry.start_after = parent;
    }
    if (!expect(':', "after start-after")) return false;
    skip_ws();
    if (text_.substr(pos_).rfind("page=", 0) == 0) {
      pos_ += 5;
      return parse_page_ref(entry);
    }
    if (!parse_uint(entry.upload_bytes, "upload byte count", kMaxBytesField)) {
      return false;
    }
    if (!expect(':', "after upload byte count")) return false;
    if (!parse_uint(entry.download_bytes, "download byte count",
                    kMaxBytesField)) {
      return false;
    }
    return expect(';', "to end the entry");
  }

  bool parse_page_ref(StreamSpec& entry) {
    const std::size_t start = pos_;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) !=
                             0 ||
                         peek() == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      error_here("expected a page-graph reference after 'page=', got " +
                 describe_here());
      return false;
    }
    const std::string name(text_.substr(start, pos_ - start));
    const std::optional<PageGraph> graph = lookup_page_graph(name);
    if (!graph) {
      error(start + 1,
            "unknown page graph '" + name +
                "' (use <count>x<bytes> or a registered name)");
      return false;
    }
    entry.page = *graph;
    entry.page_ref = name;
    return expect(';', "to end the entry");
  }

  bool validate(const ScenarioSpec& spec) {
    // Unique stream ids; remember each id's entry index for edge walking.
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
      const auto [it, inserted] =
          by_id.emplace(spec.streams[i].stream_id, i);
      (void)it;
      if (!inserted) {
        error(entry_cols_[i], "duplicate stream id " +
                                  std::to_string(spec.streams[i].stream_id));
        return false;
      }
    }
    // start-after must reference a declared stream (forward references are
    // fine — execution order comes from the dependency graph, not the text
    // order) and the reference graph must be acyclic.
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
      const StreamSpec& s = spec.streams[i];
      if (s.start_after && by_id.find(*s.start_after) == by_id.end()) {
        error(entry_cols_[i], "stream " + std::to_string(s.stream_id) +
                                  " starts after undeclared stream " +
                                  std::to_string(*s.start_after));
        return false;
      }
    }
    // Each entry has at most one outgoing edge (its parent), so cycle
    // detection is pointer-chasing with a visit stamp per start entry. A
    // self-reference is the one-hop case.
    std::vector<int> stamp(spec.streams.size(), -1);
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
      std::size_t at = i;
      while (spec.streams[at].start_after) {
        if (stamp[at] == static_cast<int>(i)) {
          error(entry_cols_[at],
                "start-after cycle through stream " +
                    std::to_string(spec.streams[at].stream_id));
          return false;
        }
        if (stamp[at] != -1) break;  // earlier walk proved this tail acyclic
        stamp[at] = static_cast<int>(i);
        at = by_id[*spec.streams[at].start_after];
      }
    }
    // The totals accessors sum repeat x bytes over entries in uint64; a
    // scenario they cannot represent is an error, not a silent wrap.
    std::uint64_t up_total = 0;
    std::uint64_t down_total = 0;
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
      const StreamSpec& s = spec.streams[i];
      std::uint64_t up = s.is_page() ? 0 : s.upload_bytes;
      std::uint64_t down =
          s.is_page() ? static_cast<std::uint64_t>(s.page->object_count) *
                            s.page->object_bytes
                      : s.download_bytes;
      if (__builtin_mul_overflow(s.repeat, up, &up) ||
          __builtin_mul_overflow(s.repeat, down, &down) ||
          __builtin_add_overflow(up_total, up, &up_total) ||
          __builtin_add_overflow(down_total, down, &down_total)) {
        error(entry_cols_[i], "byte totals overflow at stream " +
                                  std::to_string(s.stream_id) +
                                  " (repeat x bytes summed over entries "
                                  "must fit in 64 bits)");
        return false;
      }
    }
    return true;
  }

  std::string_view text_;
  std::string_view label_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> entry_cols_;  // column of each entry's '*'
  std::string error_;
};

}  // namespace

std::optional<PageGraph> lookup_page_graph(std::string_view name) {
  for (const NamedGraph& g : kNamedGraphs) {
    if (name == g.name) return g.graph;
  }
  // <count>x<bytes>, both decimal: "10x10240".
  const std::size_t x = name.find('x');
  if (x == std::string_view::npos || x == 0 || x + 1 >= name.size()) {
    return std::nullopt;
  }
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  const char* cb = name.data();
  auto r1 = std::from_chars(cb, cb + x, count);
  auto r2 = std::from_chars(cb + x + 1, cb + name.size(), bytes);
  if (r1.ec != std::errc() || r1.ptr != cb + x || r2.ec != std::errc() ||
      r2.ptr != cb + name.size()) {
    return std::nullopt;
  }
  if (count == 0 || count > 100'000 || bytes > 1'000'000'000'000ULL) {
    return std::nullopt;
  }
  return PageGraph{static_cast<std::size_t>(count),
                   static_cast<std::size_t>(bytes)};
}

ScenarioSpec page_scenario(PageGraph page) {
  ScenarioSpec spec;
  StreamSpec& s = spec.streams.emplace_back();
  s.page = page;
  s.page_ref = std::to_string(page.object_count) + "x" +
               std::to_string(page.object_bytes);
  return spec;
}

std::string ScenarioSpec::format() const {
  std::string out;
  for (const StreamSpec& s : streams) {
    out += '*';
    out += std::to_string(s.repeat);
    out += ':';
    out += std::to_string(s.stream_id);
    out += ':';
    out += s.start_after ? std::to_string(*s.start_after) : "-";
    out += ':';
    if (s.is_page()) {
      out += "page=";
      out += s.page_ref;
    } else {
      out += std::to_string(s.upload_bytes);
      out += ':';
      out += std::to_string(s.download_bytes);
    }
    out += ';';
  }
  return out;
}

std::uint64_t ScenarioSpec::total_transactions() const {
  std::uint64_t n = 0;
  for (const StreamSpec& s : streams) n += s.repeat;
  return n;
}

std::uint64_t ScenarioSpec::total_upload_bytes() const {
  std::uint64_t n = 0;
  for (const StreamSpec& s : streams) {
    if (!s.is_page()) n += s.repeat * s.upload_bytes;
  }
  return n;
}

std::uint64_t ScenarioSpec::total_download_bytes() const {
  std::uint64_t n = 0;
  for (const StreamSpec& s : streams) {
    if (s.is_page()) {
      n += s.repeat * static_cast<std::uint64_t>(s.page->object_count) *
           s.page->object_bytes;
    } else {
      n += s.repeat * s.download_bytes;
    }
  }
  return n;
}

ParseResult parse_scenario(std::string_view text, std::string_view label) {
  return Parser(text, label).run();
}

}  // namespace longlook::workload
