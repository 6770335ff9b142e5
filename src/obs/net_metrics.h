#ifndef ICEWAFL_OBS_NET_METRICS_H_
#define ICEWAFL_OBS_NET_METRICS_H_

#include <string>

#include "obs/metrics.h"

namespace icewafl {
namespace obs {

/// \file
/// Metric families of the serving subsystem (`src/net/`). Bound once
/// from a MetricRegistry at server start (server-wide families) or at
/// session registration (session-labeled families), handles shared by
/// the reactor and worker threads (all handles are lock-free atomics).
/// With a null registry every handle is nullptr and the server pays one
/// null check per event — the same opt-in contract as the runtime
/// instrumentation (DESIGN.md section 7).
///
/// Thread-safety contract: `Bind` serializes through the registry's own
/// mutex (`kLockRankMetricRegistry`, the last rank in the lock
/// hierarchy — see util/sync.h), so binding is legal while holding any
/// server lock. The returned structs are immutable after Bind; publish
/// them to other threads before use (the server binds before spawning
/// its reactor/workers, or under its registry mutex for late sessions).

/// \brief Server-wide serving metrics (no session dimension).
struct ServerMetrics {
  Counter* clients_accepted = nullptr;  ///< connections accepted
  Gauge* clients_connected = nullptr;   ///< currently connected
  Counter* bytes_sent = nullptr;        ///< payload bytes written

  /// \brief Binds every family in `registry`; no-op when null.
  static ServerMetrics Bind(MetricRegistry* registry);
};

/// \brief Per-session serving metrics, labeled {session="<id>"}. A
/// multi-tenant server binds one of these per named session, so the
/// exposition separates tenants instead of blending them into one
/// counter.
struct SessionMetrics {
  Counter* runs = nullptr;              ///< completed pipeline runs
  Counter* tuples_sent = nullptr;       ///< tuples enqueued (any frame kind)
  Counter* batches_sent = nullptr;      ///< batch frames enqueued (v2 cap)
  Counter* slow_drops = nullptr;        ///< frames dropped (drop_oldest)
  Counter* slow_disconnects = nullptr;  ///< clients cut (disconnect)
  /// Seconds a queued item (a chunk of tuple frames, or one batch or
  /// control frame) waits between entering a subscriber's queue and the
  /// reactor dequeuing it for writing; observed once per item.
  Histogram* send_latency = nullptr;
  /// Version of the session's current published PlanSnapshot (0 while
  /// the session serves no plan).
  Gauge* plan_version = nullptr;
  /// Successful plan publications after the initial one (SwapPlan /
  /// UpdateSession over the admin channel or in-process).
  Counter* plan_swaps = nullptr;
  /// Seconds between a snapshot's publication and the serving runner
  /// adopting it at a cutover boundary.
  Histogram* swap_latency = nullptr;

  /// \brief Binds every family in `registry` under the session label;
  /// no-op when null.
  static SessionMetrics Bind(MetricRegistry* registry,
                             const std::string& session_id);
};

}  // namespace obs
}  // namespace icewafl

#endif  // ICEWAFL_OBS_NET_METRICS_H_
