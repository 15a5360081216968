// One workload in one process: inputs from --seed, set-up, the measured
// phases, answer checks, and one JSON result line on stdout.
//
//   perfbench_driver --config perfbench/workloads.json --workload NAME
//                    --seed N --seconds S --trace 0|1
//                    [--setup-reps N (default 9)] [--spans-out FILE]
//                    [--corrupt-every N]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer ones.
// --corrupt-every N corrupts every N-th answer before it is checked, to
// show that a wrong answer fails the run.
// Exit status: 0 when every answer checked out, 1 on a wrong or missing
// answer, 2 on bad arguments or configuration, 3 when the checker's own
// self-test fails.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "layers.h"
#include "load.h"
#include "shapley/net/json.h"
#include "workload.h"

namespace {

using perfbench::Metric;
using shapley::net::Json;

struct Args {
  std::string config;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  size_t setup_reps = 9;
  std::string spans_out;
  size_t corrupt_every = 0;  ///< Test hook, see CorruptEvery.
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--config") {
      args.config = value;
    } else if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = std::stoi(value);
    } else if (arg == "--setup-reps") {
      args.setup_reps = std::max<size_t>(1, std::stoul(value));
    } else if (arg == "--spans-out") {
      args.spans_out = value;
    } else if (arg == "--corrupt-every") {
      args.corrupt_every = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (args.config.empty() || args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument("need --config, --workload, --seconds > 0, "
                                "--trace 0|1");
  }
  return args;
}

/// Interleaved measurement rounds per run.
constexpr size_t kRounds = 5;

/// How one run spends --seconds, per round.
struct Schedule {
  double closed_s = 0;  ///< --trace 0: closed loop.
  double open_s = 0;    ///< --trace 0: open loop at the fixed rate.
  double rung_s = 0;    ///< --trace 0: each rung of the ladder.
  double segment_s = 0; ///< --trace 1: each untraced and traced segment.
  size_t closed_cap = std::numeric_limits<size_t>::max();  ///< Ops per
                                                           ///< closed loop.
  size_t fresh = 0;  ///< Fresh inputs the whole run can consume.
};

Schedule MakeSchedule(const perfbench::WorkloadConfig& config, int trace,
                      double seconds) {
  Schedule plan;
  const double round_s = seconds / static_cast<double>(kRounds);
  plan.closed_s = 0.3 * round_s;
  plan.open_s = 0.1 * round_s;
  plan.rung_s = 0.6 * round_s / static_cast<double>(config.ladder.size());
  plan.segment_s = 0.3 * round_s;
  if (config.kind != "engine") return plan;
  // Engine workloads never repeat an input, so every operation the run
  // can start needs one: the closed loops stop at a cap set well above
  // today's throughput, and the open loops take exactly their slots.
  const double closed_s = trace ? plan.segment_s : plan.closed_s;
  plan.closed_cap =
      static_cast<size_t>(std::ceil(config.closed_cap_rps * closed_s));
  size_t per_round = (trace ? 2 : 1) * plan.closed_cap;
  if (!trace) {
    per_round += perfbench::OpenSlots(config.open_rate, plan.open_s);
    for (double rate : config.ladder) {
      per_round += perfbench::OpenSlots(rate, plan.rung_s);
    }
  }
  plan.fresh = kRounds * per_round;
  return plan;
}

volatile uint64_t calibration_sink = 0;

/// A fixed single-thread integer loop; its time tracks host speed.
double CalibrationMs() {
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  calibration_sink = x;
  return 1000.0 * perfbench::SecondsBetween(t0, perfbench::Clock::now());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Per span name: count, mean duration and mean self time (duration minus
/// the part its child spans cover).
Json SpanSummary(const perfbench::SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const auto& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  struct Agg {
    size_t count = 0;
    double total_us = 0, self_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    Agg& agg = by_name[spans[i].name];
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++agg.count;
    agg.total_us += dur / 1000.0;
    agg.self_us += (dur - static_cast<double>(child_ns[i])) / 1000.0;
  }
  Json out = Json::Arr();
  for (const auto& [name, agg] : by_name) {
    Json row;
    row.Set("name", Json::Str(name));
    row.Set("count", Json::Number(uint64_t{agg.count}));
    row.Set("mean_us", Json::Number(agg.total_us / agg.count));
    row.Set("self_mean_us", Json::Number(agg.self_us / agg.count));
    out.Push(std::move(row));
  }
  return out;
}

void WriteSpans(const perfbench::SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  const auto& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "{\"i\":" << i << ",\"name\":\"" << spans[i].name
        << "\",\"op\":" << spans[i].op << ",\"parent\":" << spans[i].parent
        << ",\"start_ns\":" << spans[i].start_ns
        << ",\"end_ns\":" << spans[i].end_ns << "}\n";
  }
}

int Run(const Args& args) {
  const perfbench::WorkloadConfig config =
      perfbench::LoadConfig(args.config, args.workload);
  const double calibration_ms = CalibrationMs();
  auto schema = shapley::Schema::Create();
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(config);
  const Schedule schedule = MakeSchedule(config, args.trace, args.seconds);
  workload->Prepare(schema, args.seed, schedule.fresh);
  if (workload->references().empty()) {
    std::cerr << "no reference answers to check against\n";
    return 2;
  }
  const std::string self_test = perfbench::SelfTest(
      workload->inputs().front(), workload->references().front());
  if (!self_test.empty()) {
    std::cerr << "checker self-test failed: " << self_test << "\n";
    return 3;
  }
  perfbench::CorruptEvery(args.corrupt_every);

  perfbench::Tally tally;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < args.setup_reps; ++rep) {
    const perfbench::Clock::time_point t0 = perfbench::Clock::now();
    workload->Start();
    workload->Warm(tally);
    setup_s.push_back(perfbench::SecondsBetween(t0, perfbench::Clock::now()));
    if (rep + 1 < args.setup_reps) workload->Stop();
  }

  std::vector<Metric> metrics;
  Json notes;
  perfbench::SpanLog spans;
  if (args.trace == 0) {
    // The phases run in interleaved rounds, and each metric is a median over
    // rounds (or over windows of the pooled rounds), so a host disturbance
    // of a few seconds moves one round rather than the result.
    perfbench::Phase closed, open;
    std::vector<double> round_rps, round_p50, round_cpu;
    std::vector<perfbench::LadderResult> ladders;
    for (size_t round = 0; round < kRounds; ++round) {
      perfbench::Phase c = perfbench::RunClosed(*workload, schedule.closed_s,
                                                false, schedule.closed_cap);
      round_rps.push_back(c.ItemsPerSecond());
      round_p50.push_back(perfbench::Median(c.latency_ms));
      const double service_cpu_s =
          c.process_cpu_s - (workload->remote() ? c.worker_cpu_s : 0.0);
      round_cpu.push_back(
          c.items > 0 ? 1000.0 * service_cpu_s / static_cast<double>(c.items)
                      : 0.0);
      closed.Append(c);
      open.Append(
          perfbench::RunOpen(*workload, config.open_rate, schedule.open_s));
      ladders.push_back(perfbench::RunLadder(*workload, schedule.rung_s));
      tally.Merge(ladders.back().tally);
    }
    tally.Merge(closed.tally);
    tally.Merge(open.tally);

    std::vector<double> lat = closed.latency_ms;
    const double whole_p99 = perfbench::Quantile(lat, 0.99);
    size_t above_p99 = 0;
    for (double v : lat) above_p99 += v > whole_p99 ? 1 : 0;
    std::vector<double> open_lat = open.latency_ms;
    std::vector<double> late = open.lateness_ms;

    metrics = {
        {"setup_s", "s", perfbench::Median(setup_s), setup_s.size(), ""},
        {"throughput_rps", "1/s", perfbench::Median(round_rps), closed.items,
         ""},
        {"latency_p50_ms", "ms", perfbench::Median(round_p50), lat.size(),
         ""},
        {"latency_p99_ms", "ms", perfbench::WindowedP99(closed.latency_ms),
         lat.size(), ""},
        {"cpu_ms_per_op", "ms", perfbench::Median(round_cpu), closed.items,
         ""},
        {"open_p99_ms", "ms", perfbench::WindowedP99(open.latency_ms),
         open.latency_ms.size(), ""},
        {"sustained_rps", "1/s", perfbench::SustainedRate(ladders),
         ladders.size() * config.ladder.size(), ""},
        {"peak_rss_mb", "MB", PeakRssMb(), 1, ""},
    };
    Json reps = Json::Arr();
    for (double v : setup_s) reps.Push(Json::Number(v));
    notes.Set("setup_reps_s", std::move(reps));
    notes.Set("rounds", Json::Number(uint64_t{kRounds}));
    notes.Set("closed_p99_whole_ms", Json::Number(whole_p99));
    notes.Set("closed_above_p99", Json::Number(uint64_t{above_p99}));
    notes.Set("closed_capped", Json::Bool(closed.capped));
    notes.Set("open_rate_ops", Json::Number(config.open_rate));
    notes.Set("open_p99_whole_ms",
              Json::Number(perfbench::Quantile(open_lat, 0.99)));
    notes.Set("open_late_mean_ms", Json::Number(perfbench::Mean(late)));
    notes.Set("open_late_max_ms",
              Json::Number(late.empty() ? 0.0 : perfbench::Quantile(late, 1.0)));
    Json rung_p99 = Json::Arr();
    for (const perfbench::LadderResult& ladder : ladders) {
      Json round = Json::Arr();
      for (size_t rung = 0; rung < ladder.passed.size(); ++rung) {
        round.Push(Json::Number(ladder.passed[rung] ? ladder.rung_p99_ms[rung]
                                                    : -ladder.rung_p99_ms[rung]));
      }
      rung_p99.Push(std::move(round));
    }
    // Per round and rung; negative where the rung did not pass.
    notes.Set("ladder_rung_p99_ms", std::move(rung_p99));
    notes.Set("latency_limit_ms", Json::Number(config.latency_limit_ms));
  } else {
    const perfbench::ServiceTotals before =
        perfbench::SumServiceStats(*workload);
    perfbench::Phase untraced, traced;
    for (size_t round = 0; round < kRounds; ++round) {
      untraced.Append(perfbench::RunClosed(*workload, schedule.segment_s,
                                           false, schedule.closed_cap));
      traced.Append(perfbench::RunClosed(*workload, schedule.segment_s, true,
                                         schedule.closed_cap));
    }
    const perfbench::ServiceTotals after =
        perfbench::SumServiceStats(*workload);
    tally.Merge(untraced.tally);
    tally.Merge(traced.tally);
    spans.Append(traced.spans);
    metrics = perfbench::MeasureLayers(*workload, schema, args.seed, before,
                                       after, untraced, traced, tally, spans);
    notes.Set("untraced_rps", Json::Number(untraced.ItemsPerSecond()));
    notes.Set("traced_rps", Json::Number(traced.ItemsPerSecond()));
    notes.Set("spans", SpanSummary(spans));
    if (!args.spans_out.empty()) WriteSpans(spans, args.spans_out);
  }
  workload->Stop();

  Json result;
  result.Set("workload", Json::Str(config.name));
  result.Set("seed", Json::Number(args.seed));
  result.Set("trace", Json::Number(int64_t{args.trace}));
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(workload->fingerprint()));
  result.Set("fingerprint", Json::Str(fingerprint));
  result.Set("inputs", Json::Number(uint64_t{workload->inputs().size()}));
  result.Set("inputs_consumed", Json::Number(uint64_t{workload->consumed()}));
  result.Set("calibration_ms", Json::Number(calibration_ms));
  result.Set("correct", Json::Bool(tally.failed == 0));
  result.Set("attempted", Json::Number(uint64_t{tally.attempted}));
  result.Set("failed", Json::Number(uint64_t{tally.failed}));
  Json errors = Json::Arr();
  for (const std::string& e : tally.first_errors) errors.Push(Json::Str(e));
  result.Set("errors", std::move(errors));
  notes.Set("memo_hits_compared", Json::Number(uint64_t{tally.memo_compared}));
  notes.Set("memo_hits_differ", Json::Number(uint64_t{tally.memo_differs}));
  result.Set("notes", std::move(notes));
  Json out = Json::Arr();
  for (const Metric& metric : metrics) {
    Json row;
    row.Set("name", Json::Str(metric.name));
    row.Set("unit", Json::Str(metric.unit));
    row.Set("value", Json::Number(metric.value));
    row.Set("samples", Json::Number(uint64_t{metric.samples}));
    if (!metric.moves.empty()) row.Set("moves", Json::Str(metric.moves));
    out.Push(std::move(row));
  }
  result.Set("metrics", std::move(out));
  std::cout << result.Dump() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
