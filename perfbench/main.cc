// odebench: runs one benchmark workload for one seed, checks its outputs
// exactly, and prints the metrics as the last line of stdout. See
// README.md; perfbench/run.py builds this binary and forwards its flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workload.h"

namespace {

constexpr char kUsage[] =
    "usage: odebench --workload rules_mem|wire_durable [--seed N] "
    "[--seconds N] [--trace 0|1] [--open-rate EV_PER_S] [--out-dir DIR]\n";

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void AddEndToEnd(const perfbench::EndToEnd& e, perfbench::Report* report) {
  report->Metric("throughput_eps", e.throughput_eps);
  report->Metric("cpu_us_per_event", e.cpu_us_per_event);
  report->Metric("setup_s", e.setup_s);
  report->Metric("recovery_s", e.recovery_s);
  report->Metric("peak_rss_mb", perfbench::PeakRssMb());
}

void PrintEndToEnd(const char* label, const perfbench::EndToEnd& e) {
  perfbench::PrintTail("fire", e.fire);
  if (e.ack.n > 0) perfbench::PrintTail("ack", e.ack);
  std::printf(
      "%s: throughput_eps=%.0f cpu_us_per_event=%.2f setup_s=%.3f "
      "recovery_s=%.3f gen_late_p99_us=%.1f\n",
      label, e.throughput_eps, e.cpu_us_per_event, e.setup_s, e.recovery_s,
      e.gen_late_p99_us);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "odebench: %s needs a value\n%s", flag, kUsage);
      return 2;
    }
    const char* value = argv[++i];
    long long n = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 &&
               ParseInt(value, 0, 1LL << 62, &n)) {
      opts.seed = static_cast<uint64_t>(n);
    } else if (std::strcmp(flag, "--seconds") == 0 && ParseInt(value, 1, 60, &n)) {
      opts.seconds = static_cast<int>(n);
    } else if (std::strcmp(flag, "--trace") == 0 && ParseInt(value, 0, 1, &n)) {
      opts.trace = n == 1;
    } else if (std::strcmp(flag, "--open-rate") == 0 &&
               ParseInt(value, 1000, 1000000, &n)) {
      opts.open_rate = n;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      opts.out_dir = value;
    } else {
      std::fprintf(stderr, "odebench: bad flag or value: %s %s\n%s", flag,
                   value, kUsage);
      return 2;
    }
  }
  ode::Status (*run)(const perfbench::RunOptions&, bool, perfbench::Report*,
                     perfbench::EndToEnd*) = nullptr;
  if (opts.workload == "rules_mem") {
    run = perfbench::RunRulesMem;
  } else if (opts.workload == "wire_durable") {
    run = perfbench::RunWireDurable;
  } else {
    std::fprintf(stderr, "odebench: unknown workload '%s'\n%s",
                 opts.workload.c_str(), kUsage);
    return 2;
  }
  ode::Status made = perfbench::MakeDirs(opts.out_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "odebench: %s\n", made.ToString().c_str());
    return 1;
  }

  perfbench::Report report;
  perfbench::EndToEnd base;
  ode::Status s = run(opts, false, &report, &base);
  if (!s.ok()) {
    std::fprintf(stderr, "odebench: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintEndToEnd("untraced", base);
  if (!opts.trace) {
    AddEndToEnd(base, &report);
    report.ExpectAll(perfbench::EndToEndMetrics());
  } else {
    // The traced pass repeats the run with spans on; the differences in
    // its end-to-end figures are the tracing overhead.
    perfbench::EndToEnd traced;
    s = run(opts, true, &report, &traced);
    if (!s.ok()) {
      std::fprintf(stderr, "odebench: %s\n", s.ToString().c_str());
      return 1;
    }
    PrintEndToEnd("traced", traced);
    // Open-loop latencies are too exposed to host preemption to gate
    // (README.md); they are reported here, from the untraced pass.
    report.Metric("bench.fire_p50_us", base.fire.p50);
    report.Metric("bench.fire_p99_us", base.fire.p99);
    report.Metric("net.ack_p50_us", base.ack.p50);
    report.Metric("net.ack_p99_us", base.ack.p99);
    report.Metric("bench.trace_overhead_tput_pct",
                  100.0 * (base.throughput_eps - traced.throughput_eps) /
                      base.throughput_eps);
    report.Metric("bench.trace_overhead_cpu_us",
                  traced.cpu_us_per_event - base.cpu_us_per_event);
    report.Metric("bench.trace_overhead_fire_p50_us",
                  traced.fire.p50 - base.fire.p50);
    report.ExpectAll(perfbench::LayerMetrics());
  }
  report.PrintJson();
  return 0;
}
