// Ablation A4: wire-codec throughput. Measures tuple encode and decode
// rates for the length-prefixed binary frame format that
// `icewafl_cli serve` fans out, so serving overhead can be attributed
// to codec vs. socket cost. Reported counters are tuples/s and bytes/s.
// Tuple streams: the wearable stream (Arg 0) and one year of the
// 18-column air-quality stream (Arg 1). Decoding goes through frame
// views into one reused Tuple, as net::StreamClient does.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "data/airquality.h"
#include "data/wearable.h"
#include "net/wire.h"
#include "stream/batch.h"
#include "stream/tuple.h"
#include "util/json.h"

namespace {

using namespace icewafl;  // NOLINT

const TupleVector& WearableStream() {
  static const TupleVector stream = [] {
    auto generated = data::GenerateWearable();
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

/// One year of hourly air-quality rows (18 columns, two string ones).
const TupleVector& AirQualityStream() {
  static const TupleVector stream = [] {
    data::AirQualityOptions options;
    options.hours = 24 * 365;
    auto generated = data::GenerateAirQuality(options);
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

/// Benchmark Arg 0 selects the wearable stream, 1 the air-quality one.
const TupleVector& TupleStream(int64_t which) {
  return which == 0 ? WearableStream() : AirQualityStream();
}

const char* TupleStreamName(int64_t which) {
  return which == 0 ? "wearable" : "air_quality";
}

std::string EncodeTupleWire(const TupleVector& stream) {
  std::string wire;
  for (const Tuple& tuple : stream) net::AppendTupleFrame(tuple, &wire);
  return wire;
}

/// Splits `wire` into frame views and decodes each Tuple frame into the
/// one reused `*tuple`, as the client does; returns the frame count.
Result<size_t> DecodeTupleWire(const std::string& wire, const SchemaPtr& schema,
                               Tuple* tuple) {
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  uint8_t type = 0;
  std::string_view payload;
  size_t frames = 0;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(const bool have, decoder.Next(&type, &payload));
    if (!have) return frames;
    ICEWAFL_RETURN_NOT_OK(net::DecodeTuplePayload(payload, schema, tuple));
    benchmark::DoNotOptimize(tuple->id());
    ++frames;
  }
}

void BM_EncodeTupleFrames(benchmark::State& state) {
  const TupleVector& stream = TupleStream(state.range(0));
  size_t bytes = 0;
  size_t tuples = 0;
  for (auto _ : state) {
    for (const Tuple& tuple : stream) {
      const std::string frame = net::EncodeTupleFrame(tuple);
      benchmark::DoNotOptimize(frame.data());
      bytes += frame.size();
    }
    tuples += stream.size();
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
  state.SetLabel(TupleStreamName(state.range(0)));
}
BENCHMARK(BM_EncodeTupleFrames)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DecodeTupleFrames(benchmark::State& state) {
  const TupleVector& stream = TupleStream(state.range(0));
  const SchemaPtr schema = stream.front().schema();
  // Pre-encode the whole stream once; the loop measures decode only.
  const std::string wire = EncodeTupleWire(stream);
  size_t tuples = 0;
  Tuple decoded;
  for (auto _ : state) {
    Result<size_t> frames = DecodeTupleWire(wire, schema, &decoded);
    if (!frames.ok()) {
      state.SkipWithError(frames.status().ToString().c_str());
      return;
    }
    tuples += frames.ValueOrDie();
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
  state.SetLabel(TupleStreamName(state.range(0)));
}
BENCHMARK(BM_DecodeTupleFrames)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FrameDecoderChunkedFeed(benchmark::State& state) {
  // Decode under adversarial fragmentation: the wire arrives in chunks
  // of the given size, as a real TCP stream would.
  const size_t chunk = static_cast<size_t>(state.range(0));
  const TupleVector& stream = WearableStream();
  const std::string wire = EncodeTupleWire(stream);
  for (auto _ : state) {
    net::FrameDecoder decoder;
    uint8_t type = 0;
    std::string_view payload;
    size_t frames = 0;
    for (size_t off = 0; off < wire.size(); off += chunk) {
      decoder.Feed(wire.data() + off, std::min(chunk, wire.size() - off));
      while (true) {
        auto next = decoder.Next(&type, &payload);
        if (!next.ok() || !next.ValueOrDie()) break;
        ++frames;
      }
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
}
BENCHMARK(BM_FrameDecoderChunkedFeed)
    ->Arg(64)
    ->Arg(1460)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Batch frame (v2 capability, DESIGN.md section 13): the same stream
// shipped as one column-blob frame per micro-batch instead of one
// frame per tuple.

/// The wearable stream transposed into batch_rows-sized batches.
std::vector<Batch> WearableBatches(size_t batch_rows) {
  const TupleVector& stream = WearableStream();
  std::vector<Batch> batches;
  for (size_t off = 0; off < stream.size(); off += batch_rows) {
    TupleVector slice(
        stream.begin() + static_cast<ptrdiff_t>(off),
        stream.begin() +
            static_cast<ptrdiff_t>(std::min(off + batch_rows, stream.size())));
    auto batch = Batch::FromTuples(slice);
    if (!batch.ok()) std::abort();
    batches.push_back(std::move(batch).ValueOrDie());
  }
  return batches;
}

void BM_EncodeBatchFrames(benchmark::State& state) {
  const std::vector<Batch> batches =
      WearableBatches(static_cast<size_t>(state.range(0)));
  size_t bytes = 0;
  size_t tuples = 0;
  for (auto _ : state) {
    for (const Batch& batch : batches) {
      const std::string frame = net::EncodeBatchFrame(batch);
      benchmark::DoNotOptimize(frame.data());
      bytes += frame.size();
      tuples += batch.rows();
    }
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncodeBatchFrames)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_DecodeBatchFrames(benchmark::State& state) {
  const SchemaPtr schema = WearableStream().front().schema();
  std::string wire;
  for (const Batch& batch :
       WearableBatches(static_cast<size_t>(state.range(0)))) {
    wire += net::EncodeBatchFrame(batch);
  }
  size_t tuples = 0;
  for (auto _ : state) {
    net::FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    uint8_t type = 0;
    std::string_view payload;
    while (true) {
      auto next = decoder.Next(&type, &payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      auto batch = net::DecodeBatchPayload(payload, schema);
      if (!batch.ok()) {
        state.SkipWithError(batch.status().ToString().c_str());
        return;
      }
      tuples += batch.ValueOrDie().rows();
      benchmark::DoNotOptimize(batch.ValueOrDie().rows());
    }
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
}
BENCHMARK(BM_DecodeBatchFrames)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Measures tuple-frame vs batch-frame codec wall time over the same
/// stream and writes BENCH_wire.json: per-path seconds, bytes on the
/// wire, and the encode/decode speedups, plus the tuple-frame codec on
/// the air-quality stream (`aq_*`). The encode floor is 1x — the batch
/// framing exists so FanoutSink can encode once per micro-batch, so it
/// must never be slower than per-tuple framing.
bool WireCodecReport(const std::string& out) {
  const TupleVector& stream = WearableStream();
  const SchemaPtr schema = stream.front().schema();
  const std::vector<Batch> batches = WearableBatches(256);

  const auto best_of = [](auto&& pass) {
    double best = 1e100;
    for (int rep = 0; rep < 9; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      pass();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() < best) best = elapsed.count();
    }
    return best;
  };

  // Tuple frames: one frame string per tuple on encode; frame views
  // decoded into one reused Tuple, as the client does.
  struct TupleCodec {
    double encode_s = 0;
    double decode_s = 0;
    size_t bytes = 0;
  };
  const auto tuple_codec = [&](const TupleVector& tuples) {
    TupleCodec codec;
    codec.encode_s = best_of([&] {
      codec.bytes = 0;
      for (const Tuple& tuple : tuples) {
        const std::string frame = net::EncodeTupleFrame(tuple);
        benchmark::DoNotOptimize(frame.data());
        codec.bytes += frame.size();
      }
    });
    const std::string wire = EncodeTupleWire(tuples);
    Tuple decoded;
    codec.decode_s = best_of([&] {
      if (!DecodeTupleWire(wire, tuples.front().schema(), &decoded).ok()) {
        std::abort();
      }
    });
    return codec;
  };
  const TupleCodec wearable = tuple_codec(stream);
  const TupleCodec aq = tuple_codec(AirQualityStream());

  size_t batch_bytes = 0;
  const double batch_encode_s = best_of([&] {
    batch_bytes = 0;
    for (const Batch& batch : batches) {
      const std::string frame = net::EncodeBatchFrame(batch);
      benchmark::DoNotOptimize(frame.data());
      batch_bytes += frame.size();
    }
  });
  std::string batch_wire;
  for (const Batch& batch : batches) batch_wire += net::EncodeBatchFrame(batch);
  const double batch_decode_s = best_of([&] {
    net::FrameDecoder decoder;
    decoder.Feed(batch_wire.data(), batch_wire.size());
    uint8_t type = 0;
    std::string_view payload;
    while (true) {
      auto next = decoder.Next(&type, &payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      auto batch = net::DecodeBatchPayload(payload, schema);
      if (!batch.ok()) std::abort();
      benchmark::DoNotOptimize(batch.ValueOrDie().rows());
    }
  });

  const double encode_speedup = wearable.encode_s / batch_encode_s;
  const double decode_speedup = wearable.decode_s / batch_decode_s;
  Json report = Json::MakeObject();
  report.Set("bench", Json(std::string("net_wire_codec")));
  report.Set("tuples", Json(static_cast<int64_t>(stream.size())));
  report.Set("batch_rows", Json(int64_t{256}));
  report.Set("tuple_encode_seconds", Json(wearable.encode_s));
  report.Set("batch_encode_seconds", Json(batch_encode_s));
  report.Set("tuple_decode_seconds", Json(wearable.decode_s));
  report.Set("batch_decode_seconds", Json(batch_decode_s));
  report.Set("tuple_wire_bytes", Json(static_cast<int64_t>(wearable.bytes)));
  report.Set("batch_wire_bytes", Json(static_cast<int64_t>(batch_bytes)));
  report.Set("encode_speedup", Json(encode_speedup));
  report.Set("decode_speedup", Json(decode_speedup));
  report.Set("aq_tuples",
             Json(static_cast<int64_t>(AirQualityStream().size())));
  report.Set("aq_tuple_encode_seconds", Json(aq.encode_s));
  report.Set("aq_tuple_decode_seconds", Json(aq.decode_s));
  report.Set("aq_tuple_wire_bytes", Json(static_cast<int64_t>(aq.bytes)));
  const std::string text = report.DumpPretty() + "\n";
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::fprintf(stderr,
               "wire-codec: encode %.2fx, decode %.2fx (batch vs tuple "
               "frames); tuple decode/encode %.2fx wearable, %.2fx air "
               "quality → %s\n",
               encode_speedup, decode_speedup,
               wearable.decode_s / wearable.encode_s,
               aq.decode_s / aq.encode_s, out.c_str());
  if (encode_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: batch-frame encoding is slower than per-tuple "
                 "framing (%.2fx) — the encode-once path regressed\n",
                 encode_speedup);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --out flag before google-benchmark sees the args.
  std::string out = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!WireCodecReport(out)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
