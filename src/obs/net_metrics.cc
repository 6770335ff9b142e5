#include "obs/net_metrics.h"

namespace icewafl {
namespace obs {

// Both Bind overloads only call MetricRegistry::Get*, which lock the
// registry mutex internally (EXCLUDES(mu_) in metrics.h) — no lock is
// ever held across a Bind, so these are callable from any server thread.

ServerMetrics ServerMetrics::Bind(MetricRegistry* registry) {
  ServerMetrics m;
  if (registry == nullptr) return m;
  m.clients_accepted =
      registry->GetCounter("icewafl_server_clients_accepted_total", {},
                           "TCP subscriber connections accepted");
  m.clients_connected =
      registry->GetGauge("icewafl_server_clients_connected", {},
                         "Subscribers currently connected");
  m.bytes_sent = registry->GetCounter("icewafl_server_bytes_sent_total", {},
                                      "Frame bytes written to sockets");
  return m;
}

SessionMetrics SessionMetrics::Bind(MetricRegistry* registry,
                                    const std::string& session_id) {
  SessionMetrics m;
  if (registry == nullptr) return m;
  const Labels labels = {{"session", session_id}};
  m.runs = registry->GetCounter("icewafl_server_sessions_total", labels,
                                "Pollution runs served per session");
  m.tuples_sent =
      registry->GetCounter("icewafl_server_tuples_sent_total", labels,
                           "Tuples enqueued to subscribers, as tuple frames "
                           "or as rows of batch frames");
  m.batches_sent = registry->GetCounter(
      "icewafl_server_batches_sent_total", labels,
      "Batch frames enqueued to batch-capable subscribers");
  m.slow_drops = registry->GetCounter(
      "icewafl_server_slow_drops_total", labels,
      "Frames dropped by the drop_oldest slow-consumer policy (a dropped "
      "chunk counts each of its tuple frames)");
  m.slow_disconnects = registry->GetCounter(
      "icewafl_server_slow_disconnects_total", labels,
      "Subscribers disconnected by the disconnect slow-consumer policy");
  m.send_latency = registry->GetHistogram(
      "icewafl_server_send_latency_seconds", labels,
      ExponentialBounds(1e-6, 10.0, 4.0),
      "Per-session wait of a queued item (a chunk of tuple frames or one "
      "batch/control frame) from enqueue until the reactor dequeues it "
      "for writing");
  m.plan_version = registry->GetGauge(
      "icewafl_server_plan_version", labels,
      "Version of the session's current published plan snapshot");
  m.plan_swaps = registry->GetCounter(
      "icewafl_server_plan_swaps_total", labels,
      "Plan snapshots published after the initial one");
  m.swap_latency = registry->GetHistogram(
      "icewafl_server_plan_swap_latency_seconds", labels,
      ExponentialBounds(1e-4, 60.0, 4.0),
      "Latency from plan publication to adoption at a cutover boundary");
  return m;
}

}  // namespace obs
}  // namespace icewafl
