// Overhead of the observability subsystem (docs/observability.md).
//
// Two claims are checked, matching the PR acceptance gates:
//   1. Disabled tracing is free: a Span guard costs one relaxed atomic load
//      and the repair-campaign workload stays within noise (< 2%) of the
//      pre-PR build. The external comparison against the seed binary lives
//      in BENCH_obs_overhead.json; this harness produces the post-PR side
//      plus a direct ns/span microbenchmark.
//   2. Enabled tracing costs < 10% on the same workload.
//
// Usage: bench_obs_overhead [incidents] [seed] [samples]
//
// The campaign runs single-worker (jobs=1) so the numbers measure the obs
// code, not scheduler jitter. The last stdout line is a machine-readable
// JSON summary for scripts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/util.hpp"
#include "core/acr.hpp"
#include "obs/trace.hpp"

namespace {

double wallMs(const std::chrono::steady_clock::time_point& started) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - started)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double campaignMs(const acr::CampaignOptions& options, bool tracing) {
  acr::obs::Tracer::global().clear();
  acr::obs::Tracer::global().setEnabled(tracing);
  const auto started = std::chrono::steady_clock::now();
  const acr::CampaignResult campaign = acr::runCampaign(options);
  const double ms = wallMs(started);
  if (campaign.records.empty()) std::exit(1);  // workload must run
  acr::obs::Tracer::global().setEnabled(false);
  acr::obs::Tracer::global().clear();
  return ms;
}

/// ns per Span construct+destruct. With tracing disabled this is the cost
/// the whole pipeline pays when nobody asked for a trace — it must stay at
/// "one predictable branch" magnitude, not "allocation" magnitude.
double spanNs(bool tracing) {
  acr::obs::Tracer::global().clear();
  acr::obs::Tracer::global().setEnabled(tracing);
  constexpr int kSpans = 200000;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    acr::obs::Span span("bench.span");
  }
  const double ms = wallMs(started);
  acr::obs::Tracer::global().setEnabled(false);
  acr::obs::Tracer::global().clear();
  return ms * 1e6 / kSpans;
}

}  // namespace

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_obs_overhead: %s\n", why);
  std::fputs("usage: bench_obs_overhead [incidents] [seed] [samples]\n", stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  acr::CampaignOptions options;
  options.incidents =
      acr::bench::positional(argc, argv, 1, "incidents", 40, 1);
  options.seed =
      acr::bench::positional<std::uint64_t>(argc, argv, 2, "seed", 42);
  options.jobs = 1;
  const int samples = acr::bench::positional(argc, argv, 3, "samples", 5, 1);

  std::printf("obs overhead: campaign incidents=%d seed=%llu jobs=1, "
              "%d sample(s), median reported\n",
              options.incidents,
              static_cast<unsigned long long>(options.seed), samples);

  // Interleave the two modes so drift (thermal, cache warmup) hits both.
  std::vector<double> disabled_ms;
  std::vector<double> enabled_ms;
  for (int i = 0; i < samples; ++i) {
    disabled_ms.push_back(campaignMs(options, /*tracing=*/false));
    enabled_ms.push_back(campaignMs(options, /*tracing=*/true));
  }
  const double disabled = median(disabled_ms);
  const double enabled = median(enabled_ms);
  const double overhead_pct = (enabled / disabled - 1.0) * 100.0;
  const double span_off_ns = spanNs(false);
  const double span_on_ns = spanNs(true);

  acr::bench::Table table({"mode", "campaign ms", "span ns"}, {22, 14, 12});
  table.printHeader();
  char ms_text[32];
  char ns_text[32];
  std::snprintf(ms_text, sizeof(ms_text), "%.1f", disabled);
  std::snprintf(ns_text, sizeof(ns_text), "%.1f", span_off_ns);
  table.printRow({"tracing disabled", ms_text, ns_text});
  std::snprintf(ms_text, sizeof(ms_text), "%.1f", enabled);
  std::snprintf(ns_text, sizeof(ns_text), "%.1f", span_on_ns);
  table.printRow({"tracing enabled", ms_text, ns_text});
  table.printRule();
  std::printf("enabled overhead: %.2f%% (acceptance gate: < 10%%)\n",
              overhead_pct);

  std::printf("{\"incidents\":%d,\"seed\":%llu,\"samples\":%d,"
              "\"disabled_ms\":%.1f,\"enabled_ms\":%.1f,"
              "\"enabled_overhead_pct\":%.2f,"
              "\"span_disabled_ns\":%.1f,\"span_enabled_ns\":%.1f}\n",
              options.incidents,
              static_cast<unsigned long long>(options.seed), samples,
              disabled, enabled, overhead_pct, span_off_ns, span_on_ns);
  return overhead_pct < 10.0 ? 0 : 1;
}
