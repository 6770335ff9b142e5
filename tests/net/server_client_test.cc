#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "io/csv.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "scenarios/scenarios.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace net {
namespace {

using scenarios::ResolvedScenario;

/// One pollution run over the resolved scenario — the same replay
/// `icewafl_cli serve` hosts, so served bytes must match the offline run.
PollutionServer::SessionFn MakeScenarioSession(
    std::shared_ptr<const ResolvedScenario> scenario, uint64_t seed,
    int parallelism) {
  return [scenario, seed, parallelism](const PlanContext&, Sink* sink) {
    VectorSource source(scenario->schema, scenario->clean);
    return scenarios::StreamPipelineToSink(
        &source, scenario->pipeline, seed, parallelism, sink, nullptr, nullptr,
        nullptr, scenario->stream_start, scenario->stream_end);
  };
}

Result<std::shared_ptr<const ResolvedScenario>> Resolve(
    const std::string& name, uint64_t seed) {
  ICEWAFL_ASSIGN_OR_RETURN(ResolvedScenario resolved,
                           scenarios::ResolveScenario(name, seed));
  return std::make_shared<const ResolvedScenario>(std::move(resolved));
}

/// The offline reference run (what `icewafl_cli run --output` writes).
std::string OfflineCsv(const std::shared_ptr<const ResolvedScenario>& scenario,
                       uint64_t seed, int parallelism) {
  TupleVector clean_copy = scenario->clean;
  VectorSource source(scenario->schema, std::move(clean_copy));
  auto offline = scenarios::ApplyPipelineStreaming(
      &source, scenario->pipeline, seed, parallelism, nullptr, nullptr,
      nullptr, scenario->stream_start, scenario->stream_end);
  EXPECT_TRUE(offline.ok()) << offline.status().ToString();
  if (!offline.ok()) return "";
  return ToCsvString(scenario->schema, offline.ValueOrDie());
}

/// Drains one subscription completely; empty csv on error.
struct TailResult {
  std::string csv;
  Status status = Status::OK();
  uint64_t received = 0;
};

TailResult TailAll(uint16_t port, const std::string& session_id = "") {
  TailResult result;
  auto client = StreamClient::Connect("127.0.0.1", port, session_id);
  if (!client.ok()) {
    result.status = client.status();
    return result;
  }
  StreamClient& stream = *client.ValueOrDie();
  TupleVector tuples;
  Tuple tuple;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      result.status = next.status();
      return result;
    }
    if (!next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
  }
  result.received = stream.tuples_received();
  result.csv = ToCsvString(stream.schema(), tuples);
  return result;
}

void WaitForRuns(const PollutionServer& server, uint64_t n) {
  while (server.runs_completed() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------
// Multi-session soak: one server, three named sessions, four
// subscribers each, all concurrent — every subscriber's bytes are
// identical to that session's offline CSV.
// ---------------------------------------------------------------------

TEST(PollutionServer, ThreeSessionsFourSubscribersEachMatchOfflineRuns) {
  struct Tenant {
    std::string name;
    std::string scenario;
    uint64_t seed;
  };
  const std::vector<Tenant> tenants = {{"alpha", "random_temporal", 42},
                                       {"beta", "network_delay", 7},
                                       {"gamma", "temporal_noise", 9}};
  constexpr int kSubscribers = 4;

  obs::MetricRegistry registry;
  ServerOptions options;
  options.workers = 2;  // three sessions share two workers
  options.metrics = &registry;
  PollutionServer server(options);
  std::map<std::string, std::string> expected;
  for (const Tenant& tenant : tenants) {
    auto scenario = Resolve(tenant.scenario, tenant.seed);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    expected[tenant.name] =
        OfflineCsv(scenario.ValueOrDie(), tenant.seed, 1);
    SessionOptions session;
    session.min_subscribers = kSubscribers;
    session.max_runs = 1;
    ASSERT_TRUE(server
                    .AddSession(tenant.name,
                                scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    tenant.seed, 1),
                                session)
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.session_ids(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  std::vector<std::pair<std::string, TailResult>> results(
      tenants.size() * kSubscribers);
  std::vector<std::thread> tails;
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (int i = 0; i < kSubscribers; ++i) {
      const size_t slot = t * kSubscribers + static_cast<size_t>(i);
      const std::string name = tenants[t].name;
      tails.emplace_back([&, slot, name] {
        results[slot] = {name, TailAll(server.port(), name)};
      });
    }
  }
  for (std::thread& t : tails) t.join();
  ASSERT_TRUE(server.Wait().ok());

  for (const auto& [name, result] : results) {
    ASSERT_TRUE(result.status.ok())
        << "subscriber of '" << name << "': " << result.status.ToString();
    EXPECT_EQ(result.csv, expected[name])
        << "subscriber of '" << name << "' diverged from the offline run";
  }
  EXPECT_EQ(server.runs_completed(), tenants.size());

  // Serve metrics carry the session label.
  const std::string prom = registry.ToPrometheusText();
  for (const Tenant& tenant : tenants) {
    EXPECT_NE(prom.find("icewafl_server_sessions_total{session=\"" +
                        tenant.name + "\"} 1"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("icewafl_server_tuples_sent_total{session=\"" +
                        tenant.name + "\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("icewafl_server_send_latency_seconds"),
              std::string::npos);
  }
  EXPECT_NE(prom.find("icewafl_server_clients_accepted_total 12"),
            std::string::npos)
      << prom;
}

// A single worker still serves many sessions — they just run in turn.
TEST(PollutionServer, SingleWorkerDrivesThreeSessions) {
  PollutionServer server(ServerOptions{.workers = 1});
  for (const std::string name : {"a", "b", "c"}) {
    auto scenario = Resolve("random_temporal", 42);
    ASSERT_TRUE(scenario.ok());
    ASSERT_TRUE(server
                    .AddSession(name, scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    42, 1),
                                {.max_runs = 1})
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());
  std::vector<TailResult> results(3);
  std::vector<std::thread> tails;
  const std::vector<std::string> names = {"a", "b", "c"};
  for (size_t i = 0; i < names.size(); ++i) {
    tails.emplace_back(
        [&, i] { results[i] = TailAll(server.port(), names[i]); });
  }
  for (std::thread& t : tails) t.join();
  ASSERT_TRUE(server.Wait().ok());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(results[i].csv, results[0].csv);
  }
}

// ---------------------------------------------------------------------
// Golden digest per scenario (the PR 5 guarantee, per session).
// ---------------------------------------------------------------------

TEST(PollutionServer, AllScenariosByteIdenticalToOfflineRunFourSubscribers) {
  constexpr uint64_t kSeed = 42;
  constexpr int kSubscribers = 4;
  for (const std::string& name : scenarios::ScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = Resolve(name, kSeed);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const std::string expected_csv =
        OfflineCsv(scenario.ValueOrDie(), kSeed, 1);

    PollutionServer server;
    SessionOptions session;
    session.min_subscribers = kSubscribers;
    session.max_runs = 1;
    ASSERT_TRUE(server
                    .AddSession(name, scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    kSeed, 1),
                                session)
                    .ok());
    ASSERT_TRUE(server.Start().ok());

    std::vector<TailResult> results(kSubscribers);
    std::vector<std::thread> tails;
    for (int i = 0; i < kSubscribers; ++i) {
      tails.emplace_back([&, i] {
        results[static_cast<size_t>(i)] = TailAll(server.port(), name);
      });
    }
    for (std::thread& t : tails) t.join();
    ASSERT_TRUE(server.Wait().ok());

    for (int i = 0; i < kSubscribers; ++i) {
      const TailResult& r = results[static_cast<size_t>(i)];
      ASSERT_TRUE(r.status.ok())
          << "subscriber " << i << ": " << r.status.ToString();
      EXPECT_EQ(r.csv, expected_csv) << "subscriber " << i
                                     << " diverged from the offline run";
    }
    EXPECT_EQ(server.runs_completed(), 1u);
  }
}

TEST(PollutionServer, ParallelSessionMatchesParallelOfflineRun) {
  constexpr uint64_t kSeed = 7;
  constexpr int kParallelism = 2;
  auto scenario = Resolve("random_temporal", kSeed);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("par", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  kSeed, kParallelism),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult tail = TailAll(server.port(), "par");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(tail.status.ok()) << tail.status.ToString();
  EXPECT_EQ(tail.csv, OfflineCsv(scenario.ValueOrDie(), kSeed, kParallelism));
}

// ---------------------------------------------------------------------
// Replays and late joiners: a session's consecutive runs are identical,
// and a late joiner subscribing by name gets the next run.
// ---------------------------------------------------------------------

TEST(PollutionServer, LateJoinerByNameGetsAnIdenticalReplay) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 2})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  // The first run is over; a late joiner names the session and waits for
  // its second run.
  TailResult second = TailAll(server.port(), "alpha");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(first.csv.empty());
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(server.runs_completed(), 2u);
}

// ---------------------------------------------------------------------
// Subscribe handshake failures (all surfaced as handshake Error frames
// with an attributable client-side message).
// ---------------------------------------------------------------------

TEST(PollutionServer, UnknownSessionIsRejectedWithAttributableError) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "nope");
  ASSERT_FALSE(client.ok());
  // The full message shape is part of the contract: it names the
  // session, the peer, and what went wrong.
  EXPECT_EQ(client.status().message(),
            "session 'nope' at 127.0.0.1:" +
                std::to_string(server.port()) +
                ": server error during handshake: unknown session 'nope' "
                "(available: alpha)");
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(PollutionServer, EmptyIdResolvesOnlyWhenOneSessionExists) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server
                  .AddSession("beta", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Ambiguous with two sessions: the client must name one.
  auto anonymous = StreamClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(anonymous.ok());
  EXPECT_NE(anonymous.status().message().find(
                "subscribe must name one of the sessions: alpha, beta"),
            std::string::npos)
      << anonymous.status().ToString();
  TailResult a = TailAll(server.port(), "alpha");
  TailResult b = TailAll(server.port(), "beta");
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_TRUE(b.status.ok()) << b.status.ToString();
}

/// Bounds every blocking recv on `fd`, so a server that never answers
/// fails the test instead of hanging it.
void SetRecvTimeout(int fd) {
  timeval timeout{};
  timeout.tv_sec = 30;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
}

/// Raw-socket hello: sends `frame` and returns the server's first
/// answer frame (type + payload).
void RawHello(uint16_t port, const std::string& frame, uint8_t* type,
              std::string* payload) {
  auto fd = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd.ValueOrDie().get(), frame.data() + off,
                             frame.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<size_t>(n);
  }
  FrameDecoder decoder;
  char buf[4096];
  while (true) {
    std::string_view view;
    auto have = decoder.Next(type, &view);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (have.ValueOrDie()) {
      payload->assign(view);
      return;
    }
    const ssize_t n = ::recv(fd.ValueOrDie().get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed before answering the hello";
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

TEST(PollutionServer, WrongWireVersionGetsErrorFrame) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  uint8_t type = 0;
  std::string payload;
  RawHello(server.port(), EncodeSubscribeFrame(/*version=*/1, "alpha"),
           &type, &payload);
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "unsupported wire version 1 (server speaks 2)");
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(PollutionServer, NonSubscribeHelloGetsErrorFrame) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  uint8_t type = 0;
  std::string payload;
  RawHello(server.port(), EncodeEndFrame(0), &type, &payload);
  EXPECT_EQ(type, kFrameError);
  EXPECT_NE(payload.find("expected a Subscribe hello frame"),
            std::string::npos)
      << payload;
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(PollutionServer, OversizedHelloLengthIsRejectedOnThePrefix) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // A Subscribe header claiming a 1 MiB payload, then a trickle of
  // bytes: the server must answer from the prefix alone instead of
  // buffering toward the claimed length.
  std::string hello;
  hello.push_back(static_cast<char>(kFrameSubscribe));
  AppendVarint(1u << 20, &hello);
  hello.append(16, 'x');
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  SetRecvTimeout(fd.ValueOrDie().get());
  ASSERT_EQ(::send(fd.ValueOrDie().get(), hello.data(), hello.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  FrameDecoder decoder;
  char buf[4096];
  uint8_t type = 0;
  std::string_view payload;
  bool closed = false;
  while (!closed) {
    const ssize_t n = ::recv(fd.ValueOrDie().get(), buf, sizeof(buf), 0);
    ASSERT_GE(n, 0) << "recv failed: " << std::strerror(errno);
    if (n == 0) closed = true;
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  auto have = decoder.Next(&type, &payload);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(have.ValueOrDie()) << "server closed without an Error frame";
  EXPECT_EQ(type, kFrameError);
  EXPECT_NE(payload.find("bad subscribe frame"), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("exceeds limit of 1024"), std::string::npos)
      << payload;
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

// ---------------------------------------------------------------------
// Session lifecycle: runtime add, runtime stop (waiting and running
// paths), retirement.
// ---------------------------------------------------------------------

TEST(PollutionServer, AddSessionAfterStartServesIt) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Runtime session creation: registered only after the server is live.
  ASSERT_TRUE(server
                  .AddSession("beta", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  TailResult a = TailAll(server.port(), "alpha");
  TailResult b = TailAll(server.port(), "beta");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.csv, b.csv);
}

TEST(PollutionServer, AddSessionRejectsDuplicatesAndBadIds) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  SchemaPtr schema = scenario.ValueOrDie()->schema;
  auto fn = MakeScenarioSession(scenario.ValueOrDie(), 42, 1);
  PollutionServer server;
  ASSERT_TRUE(server.AddSession("alpha", schema, fn, {}).ok());
  Status dup = server.AddSession("alpha", schema, fn, {});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists) << dup.ToString();
  EXPECT_FALSE(server.AddSession("", schema, fn, {}).ok());
  EXPECT_FALSE(
      server
          .AddSession(std::string(kMaxSessionIdBytes + 1, 'x'), schema, fn, {})
          .ok());
  EXPECT_FALSE(server.AddSession("noschema", nullptr, fn, {}).ok());
  EXPECT_FALSE(server.AddSession("nofn", schema, nullptr, {}).ok());
}

TEST(PollutionServer, StopSessionReleasesWaitingSubscribers) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  SessionOptions options;
  options.min_subscribers = 2;  // one subscriber alone waits forever
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              options)
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "alpha");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(server.StopSession("alpha").ok());
  Tuple tuple;
  auto next = client.ValueOrDie()->Next(&tuple);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("session 'alpha' stopped"),
            std::string::npos)
      << next.status().ToString();
  // Retirement is idempotent; unknown sessions are NotFound.
  EXPECT_TRUE(server.StopSession("alpha").ok());
  EXPECT_EQ(server.StopSession("ghost").code(), StatusCode::kNotFound);
  ASSERT_TRUE(server.Wait().ok());
}

SchemaPtr FatSchema() {
  auto schema = Schema::Make(
      {{"t", ValueType::kInt64}, {"blob", ValueType::kString}}, "t");
  return schema.ValueOrDie();
}

/// ~32 KiB per tuple, `count` tuples — enough total volume that a
/// non-reading subscriber overflows its queue no matter how much the
/// kernel buffers on loopback.
PollutionServer::SessionFn MakeFatSession(SchemaPtr schema, int count) {
  return [schema, count](const PlanContext&, Sink* sink) {
    const std::string blob(32 * 1024, 'x');
    for (int i = 0; i < count; ++i) {
      Tuple tuple(schema, {Value(static_cast<int64_t>(i)), Value(blob)});
      tuple.set_id(static_cast<TupleId>(i));
      tuple.set_event_time(i);
      ICEWAFL_RETURN_NOT_OK(sink->Write(tuple));
    }
    return Status::OK();
  };
}

TEST(PollutionServer, StopSessionAbortsARunInProgress) {
  SchemaPtr schema = FatSchema();
  // Small queue + blocking policy so the run wedges on a non-reading
  // subscriber — exactly what a runtime stop must unwedge.
  ServerOptions options;
  options.queue_capacity = 4;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 100000), {})
          .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  for (int i = 0; i < 3; ++i) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  ASSERT_TRUE(server.StopSession("fat").ok());
  // A session stop retires the sole session, so Wait() returns — and a
  // requested stop is not an error.
  ASSERT_TRUE(server.Wait().ok());
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_FALSE(status.ok()) << "an aborted run must not end cleanly";
}

TEST(PollutionServer, StopSessionReachesARunBlockedOnAFullQueue) {
  // Under kBlock a subscriber that stops reading leaves the fan-out
  // blocked inside its queue's Push, where no batch-boundary stop probe
  // runs. StopSession must wake it there.
  SchemaPtr schema = FatSchema();
  ServerOptions options;
  options.queue_capacity = 4;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 100000), {})
          .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // A push that waits counts as blocked once it lands, so read tuple by
  // tuple until one has: the queue has then been full. After that the
  // client stops reading; once the pushes stop too, the fan-out is
  // wedged in Push on the full queue.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Tuple tuple;
  while (server.frame_queue_stats().blocked_pushes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  ASSERT_GT(server.frame_queue_stats().blocked_pushes, 0u);
  uint64_t pushes = server.frame_queue_stats().pushes;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const uint64_t now = server.frame_queue_stats().pushes;
    if (now == pushes) break;
    pushes = now;
  }
  ASSERT_TRUE(server.StopSession("fat").ok());
  // Hang guard: a stop that never reaches the run fails here instead of
  // hanging; RequestStop then unwedges the run so the test can end.
  const auto stopped = std::chrono::steady_clock::now();
  while (server.runs_completed() == 0 &&
         std::chrono::steady_clock::now() - stopped <
             std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (server.runs_completed() == 0) {
    server.RequestStop();
    (void)server.Wait();
    FAIL() << "StopSession did not reach the run blocked on a full queue";
  }
  // Reading what was buffered lets the reactor flush and hang up; the
  // stream must end in an error, and Wait() then returns.
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_FALSE(status.ok()) << "an aborted run must not end cleanly";
  EXPECT_TRUE(server.Wait().ok()) << "a requested stop is not an error";
}

TEST(PollutionServer, RetiredSessionRejectsNewSubscribers) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  WaitForRuns(server, 1);
  auto late = StreamClient::Connect("127.0.0.1", server.port(), "alpha");
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("session 'alpha' has ended"),
            std::string::npos)
      << late.status().ToString();
  ASSERT_TRUE(server.Wait().ok());
}

// ---------------------------------------------------------------------
// Slow-consumer policies (synthetic fat-tuple session so the bounded
// queue — not kernel socket buffering — is what overflows).
// ---------------------------------------------------------------------

TEST(PollutionServer, DropOldestKeepsRunGoingAndCountsDrops) {
  constexpr int kTuples = 700;  // ~22 MiB total
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kDropOldest;
  options.metrics = &registry;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema, MakeFatSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  // Connect but do not read until the run has finished server-side:
  // the pipeline must not stall on this slow consumer.
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WaitForRuns(server, 1);

  // Now drain: the subscriber sees gaps, surfaced as a count mismatch
  // when the End frame's total disagrees with what arrived.
  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  Status status;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
  }
  EXPECT_FALSE(status.ok()) << "a lossy stream must not end cleanly";
  EXPECT_LT(stream.tuples_received(), static_cast<uint64_t>(kTuples));
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_NE(registry.ToPrometheusText().find(
                "icewafl_server_slow_drops_total{session=\"fat\"}"),
            std::string::npos)
      << registry.ToPrometheusText();
  // Reconciliation: every drop began life as a kFull TryPush on the
  // subscriber's frame queue, so the channel-level counter must account
  // for at least the session-level drop total (retired queues included —
  // the connection is gone by the time Wait() returns).
  const uint64_t slow_drops =
      registry.GetCounter("icewafl_server_slow_drops_total",
                          {{"session", "fat"}})
          ->value();
  EXPECT_GT(slow_drops, 0u);
  EXPECT_GE(server.frame_queue_stats().try_push_full, slow_drops);
}

// ---------------------------------------------------------------------
// Batch-frame capability: a negotiated subscriber receives columnar
// Batch frames, a default subscriber receives tuple frames, and both
// decode to byte-identical CSV — the offline run's bytes.
// ---------------------------------------------------------------------

TEST(PollutionServer, BatchAndTupleSubscribersSeeIdenticalStreams) {
  const uint64_t seed = 77;
  auto scenario = Resolve("random_temporal", seed);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const std::string offline = OfflineCsv(scenario.ValueOrDie(), seed, 1);

  obs::MetricRegistry registry;
  ServerOptions options;
  options.metrics = &registry;
  options.batch_rows = 64;  // several full batches plus a partial tail
  PollutionServer server(options);
  SessionOptions session;
  session.min_subscribers = 2;  // both clients share one fanout
  session.max_runs = 1;
  ASSERT_TRUE(
      server
          .AddSession("wear", scenario.ValueOrDie()->schema,
                      MakeScenarioSession(scenario.ValueOrDie(), seed, 1),
                      session)
          .ok());
  ASSERT_TRUE(server.Start().ok());

  // One batch-capable and one plain subscriber share the run's fanout.
  auto batch_client =
      StreamClient::Connect("127.0.0.1", server.port(), "wear",
                            kCapBatchFrames);
  ASSERT_TRUE(batch_client.ok()) << batch_client.status().ToString();
  std::string tuple_csv;
  std::thread tuple_tail([&] {
    TailResult r = TailAll(server.port(), "wear");
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    tuple_csv = std::move(r.csv);
  });
  StreamClient& stream = *batch_client.ValueOrDie();
  TupleVector tuples;
  Tuple tuple;
  while (true) {
    auto next = stream.Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
  }
  tuple_tail.join();
  const std::string batch_csv = ToCsvString(stream.schema(), tuples);
  EXPECT_EQ(batch_csv, offline);
  EXPECT_EQ(tuple_csv, offline);
  // The End-frame accounting holds across unpacked batches.
  EXPECT_EQ(stream.tuples_received(), stream.reported_total());
  ASSERT_TRUE(server.Wait().ok());
  const uint64_t batches =
      registry.GetCounter("icewafl_server_batches_sent_total",
                          {{"session", "wear"}})
          ->value();
  EXPECT_GT(batches, 0u) << registry.ToPrometheusText();
}

TEST(PollutionServer, DisconnectPolicyCutsSlowConsumer) {
  constexpr int kTuples = 700;
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kDisconnect;
  options.metrics = &registry;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema, MakeFatSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  WaitForRuns(server, 1);

  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  Status status;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
  }
  // The victim observes a mid-stream disconnect (never a clean End).
  EXPECT_FALSE(status.ok());
  ASSERT_TRUE(server.Wait().ok());
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(
      prom.find("icewafl_server_slow_disconnects_total{session=\"fat\"} 1"),
      std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------
// Runtime-driven fan-out: sessions that stream through PipelineRuntime
// reach the fan-out once per runtime batch (Sink::WriteBatch), so tuple
// frames travel as chunks of up to queue_capacity frames. A small queue
// makes every runtime batch span several chunks.
// ---------------------------------------------------------------------

constexpr size_t kSmallQueue = 8;

TEST(PollutionServer, RuntimeBatchesUnderBlockMatchOfflineRun) {
  const uint64_t seed = 42;
  auto scenario = Resolve("random_temporal", seed);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const std::string offline = OfflineCsv(scenario.ValueOrDie(), seed, 2);
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = kSmallQueue;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  options.metrics = &registry;
  PollutionServer server(options);
  SessionOptions session;
  session.min_subscribers = 3;
  session.max_runs = 1;
  ASSERT_TRUE(server
                  .AddSession("wear", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  seed, 2),
                              session)
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Two tuple subscribers share each chunk; a batch subscriber rides
  // the same run.
  std::vector<TailResult> tuple_tails(2);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tuple_tails.size(); ++i) {
    threads.emplace_back(
        [&, i] { tuple_tails[i] = TailAll(server.port(), "wear"); });
  }
  std::string batch_csv;
  threads.emplace_back([&] {
    auto client = StreamClient::Connect("127.0.0.1", server.port(), "wear",
                                        kCapBatchFrames);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    TupleVector tuples;
    Tuple tuple;
    while (true) {
      auto next = client.ValueOrDie()->Next(&tuple);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ValueOrDie()) break;
      tuples.push_back(std::move(tuple));
    }
    batch_csv = ToCsvString(client.ValueOrDie()->schema(), tuples);
  });
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(server.Wait().ok());
  for (const TailResult& r : tuple_tails) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.csv, offline);
  }
  EXPECT_EQ(batch_csv, offline);
  // The queue bound is exact in frames, and the chunks did fill it.
  const ChannelStats stats = server.frame_queue_stats();
  EXPECT_LE(stats.peak_queued, kSmallQueue);
  EXPECT_EQ(stats.try_push_full, 0u);
  const uint64_t rows = tuple_tails[0].received;
  EXPECT_EQ(registry.GetCounter("icewafl_server_tuples_sent_total",
                                {{"session", "wear"}})
                ->value(),
            3 * rows);
}

/// A subscriber on a raw socket whose receive buffer is shrunk before
/// connecting, so the kernel cannot absorb the stream: the server's
/// queue policy and partial socket writes are what get exercised.
class RawSubscriber {
 public:
  static Result<RawSubscriber> Connect(uint16_t port,
                                       const std::string& session,
                                       int rcvbuf) {
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Status::IOError("socket failed");
    timeval timeout{};
    timeout.tv_sec = 30;  // a wedged server fails the test, not hangs it
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                     sizeof(rcvbuf)) != 0 ||
        ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout)) != 0) {
      return Status::IOError("setsockopt failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError("connect failed");
    }
    const std::string hello = EncodeSubscribeFrame(kWireVersion, session);
    if (::send(fd.get(), hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size())) {
      return Status::IOError("hello send failed");
    }
    RawSubscriber sub;
    sub.fd_ = std::move(fd);
    return sub;
  }

  /// Reads until the server closes. `pause` sleeps after every read of
  /// at most `read_size` bytes (a slow reader). Tuple frames are kept
  /// re-framed in `tuple_bytes`; an End frame sets `end_total`.
  void ReadAll(size_t read_size, std::chrono::microseconds pause) {
    FrameDecoder decoder;
    std::vector<char> buf(read_size);
    while (true) {
      const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
      if (n <= 0) {
        clean_close = n == 0;
        return;
      }
      decoder.Feed(buf.data(), static_cast<size_t>(n));
      uint8_t type = 0;
      std::string_view payload;
      while (true) {
        auto next = decoder.Next(&type, &payload);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next.ValueOrDie()) break;
        if (type == kFrameTuple) {
          AppendFrame(type, payload, &tuple_bytes);
          ++tuples;
        } else if (type == kFrameEnd) {
          auto total = DecodeEndPayload(payload);
          ASSERT_TRUE(total.ok());
          end_total = total.ValueOrDie();
          saw_end = true;
        } else if (type == kFrameError) {
          error = payload;
        }
      }
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
  }

  std::string tuple_bytes;
  uint64_t tuples = 0;
  bool saw_end = false;
  uint64_t end_total = 0;
  std::string error;
  bool clean_close = false;

 private:
  UniqueFd fd_;
};

/// `count` rows of ~1 KiB on a (t, blob) schema.
TupleVector MakeBulkRows(const SchemaPtr& schema, int count) {
  TupleVector rows;
  for (int i = 0; i < count; ++i) {
    std::string blob(1024, static_cast<char>('a' + i % 26));
    blob += std::to_string(i);
    Tuple tuple(schema, {Value(static_cast<int64_t>(i)), Value(blob)});
    tuple.set_id(static_cast<TupleId>(i));
    tuple.set_event_time(i);
    tuple.set_arrival_time(i);
    rows.push_back(std::move(tuple));
  }
  return rows;
}

/// Streams `rows` through a PipelineRuntime with an empty operator
/// chain, so the fan-out sees runtime batches via WriteBatch.
Status RunRowsThroughRuntime(const SchemaPtr& schema, TupleVector rows,
                             Sink* sink) {
  VectorSource source(schema, std::move(rows));
  PipelineRuntime runtime;
  return runtime.Run(
      &source, [](int) { return OperatorChain{}; }, sink);
}

PollutionServer::SessionFn MakeRuntimeSession(
    SchemaPtr schema, std::shared_ptr<const TupleVector> rows) {
  return [schema, rows](const PlanContext&, Sink* sink) {
    return RunRowsThroughRuntime(schema, *rows, sink);
  };
}

/// The tuple-frame bytes the offline run of `rows` puts on the wire.
std::string OfflineTupleBytes(const SchemaPtr& schema, const TupleVector& rows) {
  VectorSink sink;
  EXPECT_TRUE(RunRowsThroughRuntime(schema, rows, &sink).ok());
  std::string bytes;
  for (const Tuple& t : sink.tuples()) AppendTupleFrame(t, &bytes);
  return bytes;
}

constexpr int kBulkRows = 3000;  // ~3 MiB, far past a tiny socket buffer
constexpr int kTinyRcvbuf = 4096;

TEST(PollutionServer, SlowReaderForcesPartialWritesAndStaysIdentical) {
  SchemaPtr schema = FatSchema();
  auto rows = std::make_shared<const TupleVector>(
      MakeBulkRows(schema, kBulkRows));
  ServerOptions options;
  options.queue_capacity = kSmallQueue;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("bulk", schema, MakeRuntimeSession(schema, rows),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto sub = RawSubscriber::Connect(server.port(), "bulk", kTinyRcvbuf);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  // Reads of 1000 bytes, never aligned to frames or chunks, with a pause
  // after each: sendmsg keeps hitting a full socket mid-chunk.
  sub.ValueOrDie().ReadAll(1000, std::chrono::microseconds(20));
  ASSERT_TRUE(server.Wait().ok());
  const RawSubscriber& got = sub.ValueOrDie();
  EXPECT_TRUE(got.error.empty()) << got.error;
  ASSERT_TRUE(got.saw_end);
  EXPECT_EQ(got.end_total, static_cast<uint64_t>(kBulkRows));
  EXPECT_EQ(got.tuples, static_cast<uint64_t>(kBulkRows));
  EXPECT_TRUE(got.tuple_bytes == OfflineTupleBytes(schema, *rows))
      << "served tuple frames differ from the offline run";
  EXPECT_LE(server.frame_queue_stats().peak_queued, kSmallQueue);
}

TEST(PollutionServer, RuntimeBatchesUnderDropOldestCountDroppedFrames) {
  SchemaPtr schema = FatSchema();
  auto rows = std::make_shared<const TupleVector>(
      MakeBulkRows(schema, kBulkRows));
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = kSmallQueue;
  options.slow_consumer = SlowConsumerPolicy::kDropOldest;
  options.metrics = &registry;
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("bulk", schema, MakeRuntimeSession(schema, rows),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto sub = RawSubscriber::Connect(server.port(), "bulk", kTinyRcvbuf);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  // Read nothing until the run is over: the pipeline must not stall.
  WaitForRuns(server, 1);
  sub.ValueOrDie().ReadAll(64 * 1024, std::chrono::microseconds(0));
  ASSERT_TRUE(server.Wait().ok());
  const RawSubscriber& got = sub.ValueOrDie();
  ASSERT_TRUE(got.saw_end);
  EXPECT_EQ(got.end_total, static_cast<uint64_t>(kBulkRows));
  EXPECT_LT(got.tuples, static_cast<uint64_t>(kBulkRows));
  // Drops are whole chunks counted in frames: every produced frame was
  // either delivered or counted as dropped.
  const uint64_t slow_drops =
      registry.GetCounter("icewafl_server_slow_drops_total",
                          {{"session", "bulk"}})
          ->value();
  EXPECT_GT(slow_drops, 0u);
  EXPECT_EQ(got.tuples + slow_drops, static_cast<uint64_t>(kBulkRows));
  // Reconciliation with the channel layer: each drop began as a kFull
  // TryPush that then discarded one queued item of at most
  // queue_capacity frames.
  const uint64_t try_push_full = server.frame_queue_stats().try_push_full;
  EXPECT_GT(try_push_full, 0u);
  EXPECT_GE(try_push_full * kSmallQueue, slow_drops);
  EXPECT_LE(server.frame_queue_stats().peak_queued, kSmallQueue);
}

TEST(PollutionServer, RuntimeBatchesUnderDisconnectCutTheSlowSubscriber) {
  SchemaPtr schema = FatSchema();
  auto rows = std::make_shared<const TupleVector>(
      MakeBulkRows(schema, kBulkRows));
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = kSmallQueue;
  options.slow_consumer = SlowConsumerPolicy::kDisconnect;
  options.metrics = &registry;
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("bulk", schema, MakeRuntimeSession(schema, rows),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto sub = RawSubscriber::Connect(server.port(), "bulk", kTinyRcvbuf);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  WaitForRuns(server, 1);
  sub.ValueOrDie().ReadAll(64 * 1024, std::chrono::microseconds(0));
  ASSERT_TRUE(server.Wait().ok());
  const RawSubscriber& got = sub.ValueOrDie();
  // Cut mid-stream: no End frame, and only a prefix of the stream.
  EXPECT_FALSE(got.saw_end);
  EXPECT_LT(got.tuples, static_cast<uint64_t>(kBulkRows));
  const std::string offline = OfflineTupleBytes(schema, *rows);
  EXPECT_TRUE(offline.compare(0, got.tuple_bytes.size(), got.tuple_bytes) ==
              0)
      << "the delivered prefix differs from the offline run";
  EXPECT_EQ(registry.GetCounter("icewafl_server_slow_disconnects_total",
                                {{"session", "bulk"}})
                ->value(),
            1u);
}

// ---------------------------------------------------------------------
// Server lifecycle edges
// ---------------------------------------------------------------------

TEST(PollutionServer, DrainTellsAPendingHandshakeTheServerIsShuttingDown) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  ASSERT_TRUE(first.status.ok());
  WaitForRuns(server, 1);

  // A connection that never says hello: Wait()'s drain still owes it a
  // courteous Error frame before hanging up.
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  while (server.clients_connected() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Wait().ok());
  FrameDecoder decoder;
  char buf[4096];
  uint8_t type = 0;
  std::string_view payload;
  while (true) {
    auto have = decoder.Next(&type, &payload);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (have.ValueOrDie()) break;
    const ssize_t n = ::recv(fd.ValueOrDie().get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed without an Error frame";
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "server shutting down");
}

TEST(PollutionServer, RequestStopAbortsARunInProgress) {
  SchemaPtr schema = FatSchema();
  ServerOptions options;
  options.queue_capacity = 4;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 100000), {})
          .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  for (int i = 0; i < 3; ++i) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());  // a requested stop is not an error
  // The abandoned subscriber observes a broken stream, not a clean end.
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_FALSE(status.ok());
}

TEST(PollutionServer, DestructorAbortsCleanly) {
  SchemaPtr schema = FatSchema();
  PollutionServer server;
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 10), {}).ok());
  ASSERT_TRUE(server.Start().ok());
  // No Wait(), no RequestStop(): the destructor must tear down every
  // thread and fd without leaking or hanging.
}

TEST(StreamClient, ConnectToClosedPortFails) {
  auto client = StreamClient::Connect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
}

TEST(StreamClient, CorruptTupleFrameIsAttributedAndLatched) {
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, 1, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  SchemaPtr schema = FatSchema();
  // A tuple of three values where the schema has two columns, followed
  // by a well-formed tuple and an End frame: a client that skipped the
  // corrupt frame would go on to yield the good one.
  auto wide = Schema::Make({{"t", ValueType::kInt64},
                            {"v", ValueType::kString},
                            {"w", ValueType::kString}},
                           "t");
  ASSERT_TRUE(wide.ok());
  Tuple corrupt(wide.ValueOrDie(), {Value(int64_t{1}), Value("a"), Value("b")});
  Tuple good(schema, {Value(int64_t{2}), Value("c")});
  std::string frames = EncodeSchemaFrame(*schema);
  AppendTupleFrame(corrupt, &frames);
  AppendTupleFrame(good, &frames);
  frames += EncodeEndFrame(2);
  // Fake server: read the hello, send the frames, then wait for the
  // client to hang up. It owns the (non-blocking) listener, so a failed
  // accept closes it and the client's Connect fails instead of hanging.
  std::thread server([&, listen_fd = std::move(listener).ValueOrDie()] {
    pollfd pfd{listen_fd.get(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 30000), 1) << "no client connected";
    UniqueFd conn(::accept(listen_fd.get(), nullptr, nullptr));
    ASSERT_GE(conn.get(), 0);
    SetRecvTimeout(conn.get());
    FrameDecoder decoder;
    char buf[512];
    uint8_t type = 0;
    std::string_view payload;
    while (true) {
      auto have = decoder.Next(&type, &payload);
      ASSERT_TRUE(have.ok()) << have.status().ToString();
      if (have.ValueOrDie()) break;
      const ssize_t n = ::recv(conn.get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "client closed before its hello";
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    ASSERT_EQ(type, kFrameSubscribe);
    ASSERT_EQ(::send(conn.get(), frames.data(), frames.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frames.size()));
    while (::recv(conn.get(), buf, sizeof(buf), 0) > 0) {
    }
  });
  // Checks stay non-fatal until the fake server is joined.
  auto client = StreamClient::Connect("127.0.0.1", port, "fake");
  if (!client.ok()) {
    ADD_FAILURE() << client.status().ToString();
    server.join();
    return;
  }
  std::unique_ptr<StreamClient> stream = std::move(client).ValueOrDie();
  Tuple tuple;
  auto first = stream->Next(&tuple);
  EXPECT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("session 'fake' at 127.0.0.1:"),
            std::string::npos)
      << first.status().ToString();
  EXPECT_NE(first.status().message().find("wire: tuple has 3 values"),
            std::string::npos)
      << first.status().ToString();
  // The error is latched: the corrupt frame is not skipped, and the
  // connection is closed rather than read again.
  auto second = stream->Next(&tuple);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status(), first.status());
  EXPECT_EQ(stream->tuples_received(), 0u);
  stream.reset();  // hang up on the fake server
  server.join();
}

TEST(PollutionServer, RunErrorReachesSubscriberAndWait) {
  SchemaPtr schema = FatSchema();
  PollutionServer::SessionFn failing = [schema](const PlanContext&,
                                                Sink* sink) {
    Tuple tuple(schema, {Value(int64_t{0}), Value("v")});
    ICEWAFL_RETURN_NOT_OK(sink->Write(tuple));
    return Status::Internal("polluter exploded");
  };
  PollutionServer server;
  ASSERT_TRUE(
      server.AddSession("boom", schema, failing, {.max_runs = 1}).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "boom");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_NE(status.ToString().find("polluter exploded"), std::string::npos)
      << status.ToString();
  // The subscriber-visible error names the session and the peer.
  EXPECT_NE(status.message().find("session 'boom' at 127.0.0.1:"),
            std::string::npos)
      << status.ToString();
  // The run failure is also Wait()'s verdict.
  Status wait_status = server.Wait();
  EXPECT_FALSE(wait_status.ok());
  EXPECT_NE(wait_status.ToString().find("polluter exploded"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Paced plans (DESIGN.md section 5): at parallelism 1 the runtime batch
// follows the pace (PlanBatchRows), the source sleeps once per batch,
// and Batch frames end with each runtime batch. None of it changes a
// byte of the served stream.
// ---------------------------------------------------------------------

std::shared_ptr<PlanSnapshot> ScenarioPlan(const std::string& name,
                                           uint64_t seed, int parallelism,
                                           double tuples_per_sec) {
  auto plan = scenarios::BuildScenarioPlan(name, seed, parallelism,
                                           tuples_per_sec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan.ValueOrDie() : nullptr;
}

std::string OfflinePlanCsv(const PlanSnapshot& plan) {
  auto rows = scenarios::RunPlanSegmentOffline(plan, 0, plan.clean->size());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? ToCsvString(plan.schema, rows.ValueOrDie()) : "";
}

struct ServedPlan {
  std::string csv;
  uint64_t batches_sent = 0;
};

/// Serves one run of `plan` through `fn` to one subscriber (Batch
/// frames when `batch_frames`); returns its CSV and the session's
/// icewafl_server_batches_sent_total.
ServedPlan ServePlanOnce(
    std::shared_ptr<PlanSnapshot> plan, bool batch_frames,
    PollutionServer::SessionFn fn = scenarios::ServePlanToSink,
    size_t batch_rows = ServerOptions{}.batch_rows) {
  ServedPlan served;
  obs::MetricRegistry registry;
  ServerOptions options;
  options.metrics = &registry;
  options.batch_rows = batch_rows;
  PollutionServer server(options);
  Status added = server.AddSession("paced", nullptr, std::move(fn),
                                   {.max_runs = 1, .plan = std::move(plan)});
  EXPECT_TRUE(added.ok()) << added.ToString();
  EXPECT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "paced",
                                      batch_frames ? kCapBatchFrames : 0);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok()) return served;
  TupleVector tuples;
  Tuple tuple;
  while (true) {
    auto next = client.ValueOrDie()->Next(&tuple);
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
  }
  EXPECT_TRUE(server.Wait().ok());
  served.csv = ToCsvString(client.ValueOrDie()->schema(), tuples);
  served.batches_sent = registry
                            .GetCounter("icewafl_server_batches_sent_total",
                                        {{"session", "paced"}})
                            ->value();
  return served;
}

TEST(PollutionServer, PacedAndUnpacedPlansServeTheOfflineBytes) {
  for (int parallelism : {1, 2}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    auto paced = ScenarioPlan("random_temporal", 42, parallelism, 20000.0);
    auto unpaced = ScenarioPlan("random_temporal", 42, parallelism, 0.0);
    ASSERT_NE(paced, nullptr);
    ASSERT_NE(unpaced, nullptr);
    EXPECT_EQ(PlanBatchRows(*paced), parallelism == 1 ? 40u : 256u);
    // Pacing never changes bytes: both plans' offline runs equal the
    // scenario's offline run, and so does each served stream.
    auto scenario = Resolve("random_temporal", 42);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const std::string offline =
        OfflineCsv(scenario.ValueOrDie(), 42, parallelism);
    ASSERT_FALSE(offline.empty());
    EXPECT_EQ(OfflinePlanCsv(*paced), offline);
    EXPECT_EQ(OfflinePlanCsv(*unpaced), offline);
    EXPECT_EQ(ServePlanOnce(paced, false).csv, offline);
    EXPECT_EQ(ServePlanOnce(unpaced, false).csv, offline);
  }
}

TEST(PollutionServer, BatchFramesEndAtPacedRuntimeBatches) {
  auto plan = ScenarioPlan("random_temporal", 42, 1, 20000.0);
  ASSERT_NE(plan, nullptr);
  const size_t rows = plan->clean->size();
  const size_t batch = PlanBatchRows(*plan);
  const std::string offline = OfflinePlanCsv(*plan);
  ServedPlan served = ServePlanOnce(plan, /*batch_frames=*/true);
  EXPECT_EQ(served.csv, offline);
  // A frame never spans two runtime batches, so there are at least as
  // many frames as runtime batches (batch_rows is 256, far above 40).
  EXPECT_GE(served.batches_sent, (rows + batch - 1) / batch);
}

TEST(PollutionServer, PerTupleWritesFillBatchFramesToBatchRows) {
  auto plan = ScenarioPlan("random_temporal", 42, 1, 0.0);
  ASSERT_NE(plan, nullptr);
  auto rows = scenarios::RunPlanSegmentOffline(*plan, 0, plan->clean->size());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto polluted = std::make_shared<const TupleVector>(rows.ValueOrDie());
  // A session function that writes row by row (as decorators and
  // traced sinks do) still gets full frames: a Write never ends one.
  PollutionServer::SessionFn row_by_row = [polluted](const PlanContext&,
                                                     Sink* sink) {
    for (const Tuple& t : *polluted) ICEWAFL_RETURN_NOT_OK(sink->Write(t));
    return Status::OK();
  };
  constexpr size_t kBatchRows = 64;
  ServedPlan served =
      ServePlanOnce(plan, /*batch_frames=*/true, row_by_row, kBatchRows);
  EXPECT_EQ(served.csv, ToCsvString(plan->schema, *polluted));
  EXPECT_EQ(served.batches_sent,
            (polluted->size() + kBatchRows - 1) / kBatchRows);
}

TEST(PollutionServer, StopSessionOnAPacedRunEndsWithinAFewBatches) {
  // 50 rows/s: PlanBatchRows is 1, so the stop reaches the sink one row
  // interval later. With a 256-row batch the subscriber would get up to
  // a whole batch after the stop, 5 s of rows at this pace.
  auto plan = ScenarioPlan("random_temporal", 42, 1, 50.0);
  ASSERT_NE(plan, nullptr);
  const size_t batch = PlanBatchRows(*plan);
  ASSERT_EQ(batch, 1u);
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("slow", nullptr, scenarios::ServePlanToSink,
                              {.max_runs = 1, .plan = plan})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "slow");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  for (int i = 0; i < 5; ++i) {
    auto next = stream.Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  ASSERT_TRUE(server.StopSession("slow").ok());
  const auto stopped = std::chrono::steady_clock::now();
  uint64_t after_stop = 0;
  Status status = Status::OK();
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
    ++after_stop;
  }
  EXPECT_FALSE(status.ok()) << "a stopped run must not end cleanly";
  EXPECT_LE(after_stop, 8 * batch)
      << "rows kept streaming after StopSession returned";
  // Hang guard only: the whole run lasts about 21 s at this pace.
  EXPECT_LT(std::chrono::steady_clock::now() - stopped,
            std::chrono::seconds(10));
  ASSERT_TRUE(server.Wait().ok());
}

}  // namespace
}  // namespace net
}  // namespace icewafl
