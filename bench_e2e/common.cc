#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench_e2e.h"

namespace icewafl {
namespace bench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Digest::Add(const Tuple& tuple) {
  Mix(tuple.id());
  Mix(static_cast<uint64_t>(tuple.event_time()));
  Mix(static_cast<uint64_t>(tuple.arrival_time()));
  Mix(static_cast<uint64_t>(static_cast<int64_t>(tuple.substream())));
  Mix(tuple.num_values());
  for (const Value& v : tuple.values()) {
    Mix(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        Mix(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt64:
        Mix(static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        Mix(bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        Mix(s.size());
        for (size_t i = 0; i < s.size(); i += 8) {
          uint64_t word = 0;
          std::memcpy(&word, s.data() + i, std::min<size_t>(8, s.size() - i));
          Mix(word);
        }
        break;
      }
    }
  }
}

uint64_t DigestOf(const TupleVector& tuples) {
  Digest digest;
  for (const Tuple& t : tuples) digest.Add(t);
  return digest.value();
}

bool StageTimes::Tiles() const {
  const double life = lifetime_s();
  return std::fabs(busy_s + wait_s - life) <= std::max(0.01 * life, 1e-3);
}

std::string BatchName(uint64_t row) {
  std::string name = "b";
  name += std::to_string(row / SpanRows());
  return name;
}

void RecordSpan(obs::TraceRecorder* recorder, const std::string& name,
                const char* category, int64_t tid, Clock::time_point start,
                Clock::time_point end) {
  if (recorder == nullptr) return;
  // Place the span on the recorder's time line: "now" on both clocks
  // anchors the conversion.
  const int64_t now_us = recorder->NowMicros();
  const Clock::time_point now = Clock::now();
  auto us = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  recorder->RecordComplete(name, category, tid, now_us - us(now - start),
                           us(end - start));
}

}  // namespace bench
}  // namespace icewafl
