// libFuzzer target: scenario-DSL parser robustness.
//
// Feeds arbitrary bytes to workload::parse_scenario(). The parser takes its
// input from users (bench_perf --scenario, bench scenario tables), so its
// contract is checked on every input:
//  * it never crashes or trips ASan/UBSan;
//  * exactly one of `spec` / `error` is set, and an error starts with the
//    caller's label;
//  * a parsed scenario formats to canonical text that re-parses to an
//    identical AST, and format() of that AST is the same text (idempotent);
//  * the uint64 totals never wrap: they equal overflow-checked sums.
//
// Same build modes as fuzz_quic_decode.cc — see tests/fuzz/CMakeLists.txt.
// The seed corpus is text, one scenario string per file, under
// tests/fuzz/corpus/scenario/.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workload/scenario.h"

namespace {

using longlook::workload::ParseResult;
using longlook::workload::ScenarioSpec;
using longlook::workload::StreamSpec;
using longlook::workload::parse_scenario;

constexpr std::string_view kLabel = "<fuzz>";

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_scenario_parse: property violated: %s\n",
                 what);
    std::abort();
  }
}

// Bytes one entry contributes to the upload/download totals, or false when
// the product itself does not fit in uint64.
bool entry_bytes(const StreamSpec& s, std::uint64_t& up,
                 std::uint64_t& down) {
  if (s.is_page()) {
    up = 0;
    std::uint64_t page = 0;
    return !__builtin_mul_overflow(
               static_cast<std::uint64_t>(s.page->object_count),
               static_cast<std::uint64_t>(s.page->object_bytes), &page) &&
           !__builtin_mul_overflow(s.repeat, page, &down);
  }
  return !__builtin_mul_overflow(s.repeat, s.upload_bytes, &up) &&
         !__builtin_mul_overflow(s.repeat, s.download_bytes, &down);
}

// True when the spec's totals are exactly representable, i.e. the uint64
// accessors cannot have wrapped.
bool totals_fit(const ScenarioSpec& spec) {
  std::uint64_t up_total = 0;
  std::uint64_t down_total = 0;
  for (const StreamSpec& s : spec.streams) {
    std::uint64_t up = 0;
    std::uint64_t down = 0;
    if (!entry_bytes(s, up, down) ||
        __builtin_add_overflow(up_total, up, &up_total) ||
        __builtin_add_overflow(down_total, down, &down_total)) {
      return false;
    }
  }
  return up_total == spec.total_upload_bytes() &&
         down_total == spec.total_download_bytes();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const ParseResult r = parse_scenario(text, kLabel);

  check(r.ok() == r.error.empty(), "not exactly one of spec / error set");
  if (!r.ok()) {
    check(r.error.rfind(std::string(kLabel) + ":", 0) == 0,
          "error does not start with the label");
    return 0;
  }

  check(!r.spec->streams.empty(), "parsed an empty scenario");
  check(totals_fit(*r.spec), "scenario totals wrap around uint64");

  const std::string canonical = r.spec->format();
  const ParseResult again = parse_scenario(canonical, kLabel);
  check(again.ok(), "canonical format() text does not re-parse");
  check(*again.spec == *r.spec, "parse(format(spec)) != spec");
  check(again.spec->format() == canonical, "format() is not idempotent");
  return 0;
}
