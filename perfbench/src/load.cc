#include "load.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {
namespace {

/// Runs `body(worker, phase_of_worker)` on config().clients threads that
/// start together; fills the shared timing fields of the merged phase.
template <typename Body>
Phase RunWorkers(Workload& workload, double seconds, bool stop_on_deadline,
                 Body body) {
  const size_t n = workload.config().clients;
  std::vector<Phase> local(n);
  std::vector<double> cpu(n, 0.0);
  std::vector<Clock::time_point> finished(n);
  std::atomic<size_t> ready{0};
  std::atomic<size_t> running{n};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const double cpu0 = ThreadCpuSeconds();
      body(w, start, stop, local[w]);
      cpu[w] = ThreadCpuSeconds() - cpu0;
      finished[w] = Clock::now();
      running.fetch_sub(1);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const double process0 = ProcessCpuSeconds();
  start = Clock::now();
  go.store(true);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (running.load() > 0 &&
         (!stop_on_deadline || Clock::now() < deadline)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.process_cpu_s = ProcessCpuSeconds() - process0;
  Clock::time_point end = start;
  for (size_t w = 0; w < n; ++w) {
    end = std::max(end, finished[w]);
    phase.worker_cpu_s += cpu[w];
    phase.items += local[w].items;
    phase.capped = phase.capped || local[w].capped;
    phase.latency_ms.insert(phase.latency_ms.end(),
                            local[w].latency_ms.begin(),
                            local[w].latency_ms.end());
    phase.done_s.insert(phase.done_s.end(), local[w].done_s.begin(),
                        local[w].done_s.end());
    phase.tally.Merge(local[w].tally);
    phase.spans.Append(local[w].spans);
  }
  phase.wall_s = SecondsBetween(start, end);
  return phase;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return 1000.0 * SecondsBetween(a, b);
}

}  // namespace

void Phase::Append(const Phase& later) {
  latency_ms.insert(latency_ms.end(), later.latency_ms.begin(),
                    later.latency_ms.end());
  lateness_ms.insert(lateness_ms.end(), later.lateness_ms.begin(),
                     later.lateness_ms.end());
  items += later.items;
  wall_s += later.wall_s;
  process_cpu_s += later.process_cpu_s;
  worker_cpu_s += later.worker_cpu_s;
  capped = capped || later.capped;
  tally.Merge(later.tally);
  spans.Append(later.spans);
}

Phase RunClosed(Workload& workload, double seconds, bool traced,
                size_t max_ops) {
  std::atomic<size_t> started{0};
  Phase phase = RunWorkers(
      workload, seconds, /*stop_on_deadline=*/true,
      [&](size_t w, Clock::time_point start, std::atomic<bool>& stop,
          Phase& out) {
        for (uint64_t seq = 0; !stop.load(); ++seq) {
          if (started.fetch_add(1) >= max_ops) {
            out.capped = true;
            break;
          }
          const Clock::time_point t0 = Clock::now();
          const size_t before = out.latency_ms.size();
          const size_t items = workload.Op(
              w, seq, out.tally, traced ? &out.spans : nullptr, out.latency_ms);
          const Clock::time_point t1 = Clock::now();
          if (items == 0) break;
          if (out.latency_ms.size() == before) {
            out.latency_ms.push_back(Ms(t0, t1));
          }
          out.done_s.resize(out.latency_ms.size(), SecondsBetween(start, t1));
          out.items += items;
        }
      });
  std::vector<size_t> order(phase.latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phase.done_s[a] < phase.done_s[b];
  });
  std::vector<double> in_order;
  in_order.reserve(order.size());
  for (size_t i : order) in_order.push_back(phase.latency_ms[i]);
  phase.latency_ms = std::move(in_order);
  std::sort(phase.done_s.begin(), phase.done_s.end());
  return phase;
}

Phase RunOpen(Workload& workload, double rate, double seconds) {
  const size_t slots = OpenSlots(rate, seconds);
  std::atomic<size_t> next{0};
  // Indexed by slot (each written by the one worker that took the slot), so
  // both read in schedule order afterwards.
  std::vector<std::vector<double>> latency_by_slot(slots);
  std::vector<double> late_by_slot(slots, -1.0);
  Phase phase = RunWorkers(
      workload, seconds, /*stop_on_deadline=*/false,
      [&](size_t w, Clock::time_point start, std::atomic<bool>&, Phase& out) {
        for (uint64_t seq = 0;; ++seq) {
          const size_t slot = next.fetch_add(1);
          if (slot >= slots) break;
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(slot) / rate));
          // Sleep to just before the due time, then spin: a sleeping
          // generator's own wake-up delay would be charged to the program
          // as lateness, and a spinning one would take its cores.
          std::this_thread::sleep_until(due - std::chrono::microseconds(200));
          while (Clock::now() < due) std::this_thread::yield();
          const Clock::time_point sent = Clock::now();
          std::vector<double> item_ms;
          const size_t items =
              workload.Op(w, seq, out.tally, nullptr, item_ms);
          const Clock::time_point done = Clock::now();
          if (items == 0) break;
          const double late = Ms(due, sent);
          if (item_ms.empty()) item_ms.push_back(Ms(sent, done));
          for (double& ms : item_ms) ms += late;
          latency_by_slot[slot] = std::move(item_ms);
          late_by_slot[slot] = late;
          out.items += items;
        }
      });
  for (size_t slot = 0; slot < slots; ++slot) {
    if (late_by_slot[slot] < 0.0) continue;
    phase.latency_ms.insert(phase.latency_ms.end(),
                            latency_by_slot[slot].begin(),
                            latency_by_slot[slot].end());
    phase.lateness_ms.push_back(late_by_slot[slot]);
  }
  return phase;
}

double WindowedP99(const std::vector<double>& in_order) {
  const size_t windows = in_order.size() / kMinWindow;
  if (windows < 3) {
    std::vector<double> all = in_order;
    return Quantile(all, 0.99);
  }
  std::vector<double> p99s;
  const size_t size = in_order.size() / windows;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window(in_order.begin() + static_cast<std::ptrdiff_t>(w * size),
                               in_order.begin() + static_cast<std::ptrdiff_t>((w + 1) * size));
    p99s.push_back(Quantile(window, 0.99));
  }
  return Median(p99s);
}

LadderResult RunLadder(Workload& workload, double seconds_per_rung) {
  LadderResult result;
  const double limit = workload.config().latency_limit_ms;
  for (double rate : workload.config().ladder) {
    Phase phase = RunOpen(workload, rate, seconds_per_rung);
    result.tally.Merge(phase.tally);
    const double p99 = WindowedP99(phase.latency_ms);
    // Backlog: how late the last tenth of the schedule was sent (its
    // median, so one short host stall there does not read as a backlog).
    const std::vector<double>& late = phase.lateness_ms;
    const size_t tail = (late.size() + 9) / 10;
    const double tail_late =
        Median(std::vector<double>(late.end() - static_cast<std::ptrdiff_t>(tail),
                                   late.end()));
    result.passed.push_back(phase.tally.failed == 0 &&
                            p99 <= limit && tail_late <= limit);
    result.items_per_s.push_back(phase.ItemsPerSecond());
    result.rung_p99_ms.push_back(p99);
  }
  return result;
}

double SustainedRate(const std::vector<LadderResult>& rounds) {
  std::vector<double> per_round;
  for (const LadderResult& round : rounds) {
    double rate = 0.0;
    for (size_t rung = 0; rung < round.passed.size(); ++rung) {
      if (round.passed[rung]) rate = round.items_per_s[rung];
    }
    per_round.push_back(rate);
  }
  return Median(per_round);
}

}  // namespace perfbench
