// Workload scenario DSL — the quicperf grammar (draft-banks-quic-performance,
// picoquic's `"*N:stream:start-after:upload:download;"` form) extended with
// named page-load object-graph references:
//
//   scenario    = entry *( entry )
//   entry       = "*" repeat ":" stream ":" start ":" body ";"
//   repeat      = uint                ; transactions run sequentially
//   stream      = uint                ; logical stream id, unique per entry
//   start       = "-" | uint          ; "-" = start immediately; a number =
//                                     ; start when that entry completes
//   body        = upload ":" download ; bytes client posts, bytes server sends
//               | "page=" page-ref    ; a page-load object graph instead
//   page-ref    = name | count "x" bytes
//
// `"*1:0:-:397:5000000;"` posts 397 bytes on stream 0 and downloads 5 MB.
// `"*1:0:-:397:5000;*1:4:0:432:4999;"` runs a second transaction on stream 4
// once stream 0's download completes. `"*1:0:-:page=10x10240;"` loads a
// 10-object x 10 KB page (the paper's Fig. 6b column) as one entry.
//
// A scenario is data, not a translation unit: the parser validates the
// string (unique stream ids, resolvable start-after references, no
// start-after cycles, registered page names) and reports errors as
// `<label>:<col>: message` with a 1-based column into the input. The
// canonical `format()` of a parsed scenario re-parses to an identical AST
// (round-trip property, pinned in tests/test_workload.cc).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace longlook::workload {

// A page-load object graph: N objects of S bytes fetched in parallel
// (MSPC-limited). Also the harness's page shape (harness::Workload).
struct PageGraph {
  std::size_t object_count = 1;
  std::size_t object_bytes = 100 * 1024;

  bool operator==(const PageGraph&) const = default;
};

// Registered page-graph names usable as `page=<name>`; returns nullopt for
// unknown names. `<count>x<bytes>` forms (e.g. "10x10240") resolve without
// registration.
std::optional<PageGraph> lookup_page_graph(std::string_view name);
// Names in registration order, for docs/usage output.
std::vector<std::string> page_graph_names();

// One `*N:...;` entry.
struct StreamSpec {
  std::uint64_t repeat = 1;
  std::uint64_t stream_id = 0;
  // Entry (by stream id) whose completion triggers this one; nullopt = "-"
  // (start as soon as the session is ready).
  std::optional<std::uint64_t> start_after;
  // Perf transaction: client posts upload_bytes, server sends download_bytes.
  std::uint64_t upload_bytes = 0;
  std::uint64_t download_bytes = 0;
  // Page-load entry: `page=<ref>` — page holds the resolved graph and
  // page_ref the literal reference (kept so format() round-trips names).
  std::optional<PageGraph> page;
  std::string page_ref;

  bool is_page() const { return page.has_value(); }
  bool operator==(const StreamSpec&) const = default;
};

struct ScenarioSpec {
  std::vector<StreamSpec> streams;

  // Canonical string form; parse(format()) yields an identical AST.
  std::string format() const;

  // Totals across entries (one repetition each counted `repeat` times).
  std::uint64_t total_transactions() const;
  std::uint64_t total_upload_bytes() const;
  std::uint64_t total_download_bytes() const;

  bool operator==(const ScenarioSpec&) const = default;
};

// The one-entry page load `*1:0:-:page=NxB;` — how the harness, benches and
// examples fetch a page through ScenarioRunner.
ScenarioSpec page_scenario(PageGraph page);

// Parse outcome: exactly one of `spec` / `error` is meaningful.
struct ParseResult {
  std::optional<ScenarioSpec> spec;
  std::string error;  // "<label>:<col>: message" when !spec

  bool ok() const { return spec.has_value(); }
};

// Parses and validates `text`. `label` names the source in error messages
// (a file name, or "<scenario>" for CLI strings). ASCII whitespace between
// tokens is skipped.
ParseResult parse_scenario(std::string_view text,
                           std::string_view label = "<scenario>");

}  // namespace longlook::workload
