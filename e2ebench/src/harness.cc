#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <variant>

#include "common/value.h"
#include "ds/combination.h"
#include "ds/evidence_set.h"

namespace e2e {

// ------------------------------------------------------------- tracing

int32_t Tracer::Begin(const char* name, uint64_t op) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.op = op;
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = NowNs();
  return open_;
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  spans_[index].end_ns = now;
  open_ = spans_[index].parent;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (end <= start) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"tracer\": %zu, \"id\": %zu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                   "\"op\": %llu}\n",
                   t, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
  }
  return std::fclose(out) == 0;
}

// ------------------------------------------------------------- digests

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

uint64_t HashText(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Rounded(double x) {
  return static_cast<uint64_t>(std::llround(x * 1e9));
}

}  // namespace

Digest DigestOf(const ExtendedRelation& relation) {
  Digest digest;
  for (const evident::ExtendedTuple& tuple : relation.rows()) {
    uint64_t h = 0;
    for (const evident::Cell& cell : tuple.cells) {
      if (const auto* value = std::get_if<evident::Value>(&cell)) {
        h = Mix(h, HashText(value->ToString()));
        continue;
      }
      const auto& es = std::get<evident::EvidenceSet>(cell);
      for (const auto& [set, mass] : es.mass().focals()) {
        for (size_t index : set.Indices()) h = Mix(h, index);
        h = Mix(h, Rounded(mass));
      }
      h = Mix(h, 0xe5);  // cell separator
    }
    h = Mix(h, Rounded(tuple.membership.sn));
    h = Mix(h, Rounded(tuple.membership.sp));
    digest.hash += h;  // commutative: row order does not matter
    ++digest.rows;
  }
  return digest;
}

bool MassesSumToOne(const ExtendedRelation& relation) {
  for (const evident::ExtendedTuple& tuple : relation.rows()) {
    for (const evident::Cell& cell : tuple.cells) {
      const auto* es = std::get_if<evident::EvidenceSet>(&cell);
      if (es != nullptr && std::fabs(es->mass().TotalMass() - 1.0) > 1e-9) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------- statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

// ----------------------------------------------------- closed-loop run

std::vector<ClientStats> RunClosedLoop(
    int clients, double seconds, bool trace,
    const std::function<void(int, uint64_t, ClientStats*)>& op) {
  std::vector<ClientStats> stats(clients);
  for (ClientStats& s : stats) s.tracer = Tracer(trace);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t deadline = 0;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats* s = &stats[c];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; NowNs() < deadline; ++i) op(c, i, s);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return stats;
}

namespace {

/// One time window's figures: throughput, p50 and p99, from the ops
/// whose timed region ended in it.
struct Window {
  std::vector<double> latency_ms;
  double busy_s = 0.0;
};

std::vector<Window> CutWindows(const std::vector<ClientStats>& clients,
                               int count) {
  int64_t first = INT64_MAX, last = INT64_MIN;
  for (const ClientStats& c : clients) {
    for (size_t i = 0; i < c.end_ns.size(); ++i) {
      first = std::min(first, c.end_ns[i] - static_cast<int64_t>(
                                                c.latency_ms[i] * 1e6));
      last = std::max(last, c.end_ns[i]);
    }
  }
  std::vector<Window> windows(count);
  const double span = static_cast<double>(last - first) + 1.0;
  for (const ClientStats& c : clients) {
    for (size_t i = 0; i < c.end_ns.size(); ++i) {
      const int w = std::min(
          count - 1, static_cast<int>(static_cast<double>(c.end_ns[i] - first) /
                                      span * count));
      windows[w].latency_ms.push_back(c.latency_ms[i]);
      windows[w].busy_s += c.latency_ms[i] * 1e-3;
    }
  }
  return windows;
}

}  // namespace

LoopSummary Summarize(const std::vector<ClientStats>& clients) {
  LoopSummary summary;
  std::vector<double> latencies;
  for (const ClientStats& c : clients) {
    summary.attempted += c.attempted;
    summary.failed += c.failed;
    latencies.insert(latencies.end(), c.latency_ms.begin(),
                     c.latency_ms.end());
    if (summary.first_error.empty()) summary.first_error = c.first_error;
    for (const auto& [name, values] : c.samples) {
      auto& all = summary.samples[name];
      all.insert(all.end(), values.begin(), values.end());
    }
    for (const auto& [name, value] : c.counters) {
      summary.counters[name] += value;
    }
  }
  summary.whole_p50_ms = Quantile(latencies, 0.50);
  summary.whole_p99_ms = Quantile(latencies, 0.99);
  if (latencies.empty()) return summary;

  const double clients_n = static_cast<double>(clients.size());
  summary.windows = 10;
  std::vector<double> ops_per_s, p50;
  for (const Window& w : CutWindows(clients, summary.windows)) {
    if (w.latency_ms.empty()) continue;
    ops_per_s.push_back(static_cast<double>(w.latency_ms.size()) /
                        (w.busy_s / clients_n));
    p50.push_back(Quantile(w.latency_ms, 0.50));
  }
  summary.ops_per_s = Median(ops_per_s);
  summary.p50_ms = Median(p50);
  summary.p99_windows = static_cast<int>(
      std::clamp<uint64_t>(latencies.size() / 1000, 1, 20));
  summary.p99_ms = INFINITY;
  for (const Window& w : CutWindows(clients, summary.p99_windows)) {
    if (!w.latency_ms.empty()) {
      summary.p99_ms =
          std::min(summary.p99_ms, Quantile(w.latency_ms, 0.99));
    }
  }
  return summary;
}

void AddLoopInfo(const LoopSummary& summary, Report* report) {
  report->Info("ops", std::to_string(summary.attempted) + " in " +
                          std::to_string(summary.windows) + " windows (" +
                          std::to_string(summary.p99_windows) +
                          " for p99); unwindowed p50 " +
                          std::to_string(summary.whole_p50_ms) + " ms, p99 " +
                          std::to_string(summary.whole_p99_ms) + " ms");
  report->Info("failed_frac",
               summary.attempted ? static_cast<double>(summary.failed) /
                                       static_cast<double>(summary.attempted)
                                 : 1.0);
}

// ------------------------------------------------- evidence kernel (ds)

bool MeasureCombination(const std::vector<EvidencePairs>& sample,
                        Tracer* tracer, std::map<std::string, double>* layer) {
  constexpr int kPasses = 5;
  size_t pairs = 0;
  for (const EvidencePairs& column : sample) pairs += column.a.size();
  if (pairs == 0) return true;

  // Pack each attribute's two sides as FocalSpanColumns once, outside the
  // timed passes.
  struct Packed {
    std::vector<uint64_t> words;
    std::vector<double> masses;
    std::vector<uint32_t> offsets{0};
    void Add(const evident::EvidenceSet& es) {
      for (const auto& [set, mass] : es.mass().focals()) {
        words.push_back(set.InlineWord());
        masses.push_back(mass);
      }
      offsets.push_back(static_cast<uint32_t>(words.size()));
    }
    evident::FocalSpanColumn View() const {
      return {words.data(), masses.data(), offsets.data()};
    }
  };
  std::vector<std::pair<Packed, Packed>> packed(sample.size());
  for (size_t c = 0; c < sample.size(); ++c) {
    for (size_t i = 0; i < sample[c].a.size(); ++i) {
      packed[c].first.Add(*sample[c].a[i]);
      packed[c].second.Add(*sample[c].b[i]);
    }
  }

  std::vector<double> pair_ns, batch_ns;
  size_t pair_conflicts = 0, batch_conflicts = 0;
  evident::BatchCombineResult out;
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t conflicts = 0;
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "ds.combine_pair", pass);
      for (const EvidencePairs& column : sample) {
        for (size_t i = 0; i < column.a.size(); ++i) {
          auto r = evident::CombineEvidenceTrusted(
              *column.a[i], *column.b[i], evident::CombinationRule::kDempster);
          conflicts += r.ok() ? 0 : 1;
        }
      }
    }
    pair_ns.push_back(static_cast<double>(NowNs() - t0));
    pair_conflicts = conflicts;

    conflicts = 0;
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "ds.combine_batch", pass);
      for (size_t c = 0; c < sample.size(); ++c) {
        evident::CombineColumnBatch(
            sample[c].universe, evident::CombinationRule::kDempster,
            packed[c].first.View(), nullptr, packed[c].second.View(), nullptr,
            sample[c].a.size(), &out);
        for (uint8_t flag : out.total_conflict) conflicts += flag ? 1 : 0;
      }
    }
    batch_ns.push_back(static_cast<double>(NowNs() - t0));
    batch_conflicts = conflicts;
  }
  const double n = static_cast<double>(pairs);
  (*layer)["ds.combine_pair_ns"] = Median(pair_ns) / n;
  (*layer)["ds.combine_batch_ns"] = Median(batch_ns) / n;
  return pair_conflicts == batch_conflicts;
}

// -------------------------------------------------------------- report

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_.emplace_back(key, buf);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const auto& [key, value] : info_) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, metric] : metrics_) {
    std::printf("# metric %s = %.17g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i) json += ", ";
    json += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  return 1;
}

}  // namespace e2e
