#ifndef ICEWAFL_NET_SERVE_CONFIG_H_
#define ICEWAFL_NET_SERVE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \brief One named session entry of a serve document: which scenario
/// to pollute, how, and when its runs start and stop.
struct SessionConfig {
  /// Session id clients subscribe with; defaults to the scenario name.
  std::string name;
  std::string scenario;
  uint64_t seed = 42;
  int parallelism = 1;
  int min_subscribers = 1;
  /// Pipeline runs before the session retires; 0 = until stopped.
  uint64_t max_runs = 0;
  /// Optional cleaning-rules document applied to this session's served
  /// stream (scenarios::BuildPlanWithCleaner); null serves raw polluted
  /// output. Kept as raw JSON so the net layer stays free of the
  /// cleaning library — the CLI compiles and lint-gates it.
  Json cleaner;

  /// \brief Per-session server options for this entry.
  SessionOptions ToSessionOptions() const;
};

/// \brief Declarative configuration of `icewafl_cli serve` — one JSON
/// document (or the equivalent flag set) naming the sessions to host
/// and how to serve them. The same document is what
/// `analysis::AnalyzeServeConfig` lints (IW601..IW608), so a config
/// rejected by `icewafl_cli lint` is exactly one `serve` would refuse.
///
/// Two document shapes parse:
///  - multi-session: a `sessions` array of named scenario entries
///    (canonical — ToJson() always emits this form);
///  - legacy single-session: a top-level `scenario` plus the per-
///    session knobs (`seed`, `parallelism`, `min_subscribers`,
///    `max_sessions` — the pre-v2 name of `max_runs`).
/// A document using both shapes at once is rejected.
struct ServeConfig {
  std::vector<SessionConfig> sessions;
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (printed at startup).
  uint16_t port = 0;
  /// Admin channel port: -1 disables the channel (default), 0 binds an
  /// ephemeral port (printed at startup like the serve port).
  int admin_port = -1;
  /// Worker-pool size driving all sessions' pipelines.
  int workers = 2;
  /// Per-subscriber queue bound in frames (ServerOptions::queue_capacity).
  size_t queue_capacity = 256;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlock;

  /// \brief Parses and validates a serve document. The checks mirror the
  /// analyzer's IW6xx error codes — this is the enforcing twin of the
  /// advisory lint.
  static Result<ServeConfig> FromJson(const Json& json);

  /// \brief Canonical JSON form (always the `sessions` array shape).
  Json ToJson() const;

  /// \brief Server-wide options for this config; `metrics` may be null.
  ServerOptions ToServerOptions(obs::MetricRegistry* metrics) const;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_SERVE_CONFIG_H_
