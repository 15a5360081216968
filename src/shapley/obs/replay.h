#ifndef SHAPLEY_OBS_REPLAY_H_
#define SHAPLEY_OBS_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "shapley/obs/reqlog.h"

namespace shapley::obs {

/// Replay of a captured request log against a live server — the harness
/// that turns load benches into reproducible workloads. The serving stack
/// is deterministic in (request bytes, seed) — PR 5 made sampling a pure
/// function of (seed, instance) across processes — so replaying a capture
/// against a fresh process must reproduce every response bit-for-bit once
/// run-volatile fields (queue/exec timings, trace spans) are stripped;
/// bench_replay and the reqlog tests assert exactly that.

struct ReplayOptions {
  /// Pacing. 0 = max speed (fire each request the moment the previous one
  /// finishes); otherwise a multiplier on the capture's own clock — 1.0
  /// replays at original speed (each entry waits until its captured t_ms),
  /// 2.0 twice as fast.
  double speed = 0.0;
};

struct ReplayResult {
  /// Canonical response text per log entry, in log order: the response
  /// body with volatile members dropped (see CanonicalResponseBody); batch
  /// responses are the id-sorted canonical lines joined by '\n', so the
  /// text is independent of the server's completion order. Empty string
  /// for an entry that failed at the transport.
  std::vector<std::string> responses;
  size_t requests_sent = 0;
  size_t transport_errors = 0;  ///< Entries with no response at all.
  double wall_ms = 0.0;
};

/// Canonical comparison form of one /v1/compute response body: parsed,
/// run-volatile members ("stats" timings and memo-hit counts, "trace" span
/// trees, and the "t_ms"/"uptime_ms"/"latency_us"/"latency_ms" offsets the
/// /v1/debug/* endpoints carry) dropped RECURSIVELY at every object depth
/// (the trace block nests spans within spans), re-dumped. Unparsable input
/// is returned verbatim (a non-JSON body should fail a comparison loudly,
/// not vanish).
std::string CanonicalResponseBody(const std::string& raw);

/// Canonical form of a /v1/batch response: each ndjson line canonicalized
/// (as above), lines sorted by their "id" tag, joined by '\n' — a pure
/// function of the answers, independent of completion order.
std::string CanonicalBatchBody(const std::vector<std::string>& lines);

/// Fires every entry of `log` at host:port over one keep-alive connection,
/// in log order, paced per `options`. Transport failures are counted, not
/// thrown — a replay reports, the caller judges.
ReplayResult Replay(const std::vector<LogEntry>& log, const std::string& host,
                    uint16_t port, const ReplayOptions& options = {});

}  // namespace shapley::obs

#endif  // SHAPLEY_OBS_REPLAY_H_
