// Shared pieces of the end-to-end benchmark: command-line options, the
// in-memory span tracer, order-independent result digests, latency
// statistics, the closed-loop client runner and the result report.
#ifndef EVIDENT_E2EBENCH_HARNESS_H_
#define EVIDENT_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/extended_relation.h"
#include "ds/evidence_set.h"

namespace e2e {

using evident::ExtendedRelation;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Parsed command line. `gen` writes a workload's inputs into
/// `dir`; `run` measures it from there.
struct Options {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests; never used for figures.
  bool tiny = false;
  std::string dir;

  /// A traced run measures an untraced phase first (the baseline of its
  /// overhead), then a traced one; the two share the run's seconds.
  double PhaseSeconds() const { return trace ? seconds / 2 : seconds; }
};

// ------------------------------------------------------------- tracing

/// One timed call into a layer. `parent` indexes the same tracer's span
/// vector (-1 for a root); spans of one op share `op`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op = 0;
};

/// \brief Per-thread span recorder. Spans stay in memory until the run
/// ends; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int32_t open_ = -1;  // innermost open span: the parent of the next one
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// \brief Self time of every span: its duration minus the part of its
/// interval that the union of its children's intervals covers.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes spans as JSON lines (tracer index, name, start, end, parent,
/// op) to `path`; returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// ------------------------------------------------------------- digests

/// \brief Order-independent digest of a relation: its row count and a
/// commutative hash over the rows' keys, definite cells, evidence masses
/// rounded to 1e-9, and memberships rounded likewise.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& other) const {
    return rows == other.rows && hash == other.hash;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
};

/// Digests `relation`. Reads rows(), which materializes a columnar
/// relation's row cache, so only pass a relation the calling thread owns.
Digest DigestOf(const ExtendedRelation& relation);

/// True when every evidence cell's masses sum to 1 within 1e-9.
bool MassesSumToOne(const ExtendedRelation& relation);

// ---------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// Filesystem type of `path` as statfs reports it ("tmpfs", "ext4", ...).
std::string FilesystemType(const std::string& path);

uint64_t FileBytes(const std::string& path);

// ----------------------------------------------------- closed-loop run

class Report;

/// What one client thread measured.
struct ClientStats {
  std::vector<double> latency_ms;  // one entry per attempted op
  std::vector<int64_t> end_ns;     // when each op's timed region ended
  uint64_t attempted = 0;
  uint64_t failed = 0;  // error or wrong result
  Tracer tracer;
  /// Per-layer samples keyed by metric name (traced runs).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer counters keyed by name.
  std::map<std::string, double> counters;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  /// Records one op's timed latency; call right after its timed region.
  void Completed(int64_t timed_ns) {
    ++attempted;
    end_ns.push_back(NowNs());
    latency_ms.push_back(static_cast<double>(timed_ns) * 1e-6);
  }
};

/// \brief Runs `clients` closed-loop client threads for `seconds`: each
/// calls `op(client, op_index, stats)` until the deadline. Every client
/// thread is joined before this returns.
std::vector<ClientStats> RunClosedLoop(
    int clients, double seconds, bool trace,
    const std::function<void(int, uint64_t, ClientStats*)>& op);

/// Aggregate of a closed loop's clients.
struct LoopSummary {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Figures over the loop's time windows (see Summarize).
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int windows = 0;      // for ops_per_s and p50_ms
  int p99_windows = 0;  // each holding >= 1000 ops
  /// The same figures over the whole loop, unwindowed.
  double whole_p50_ms = 0.0;
  double whole_p99_ms = 0.0;
  std::string first_error;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
};

/// \brief Aggregates a loop's clients. The loop is cut into equal time
/// windows by op end time; ops_per_s and p50_ms are medians over 10
/// windows. The medians keep a burst of host noise in a few windows from
/// moving the run's figures. p99_ms is the lowest p99 among as many
/// windows (at most 20) as leave at least 1000 ops -- ten samples beyond
/// the p99 -- in each: on a shared host the tail of most windows is set
/// by neighbours' load, which can last longer than half a run, so the
/// program's own tail is read from its least disturbed window. A window's
/// throughput is its ops per second of mean client busy time, so the
/// harness's result checks between a client's ops are not counted.
LoopSummary Summarize(const std::vector<ClientStats>& clients);

/// Reports a summary's op count, windows, unwindowed quantiles and
/// failed_frac (failed or wrong ops over attempted ops).
void AddLoopInfo(const LoopSummary& summary, Report* report);

// -------------------------------------------------------------- report

/// \brief Collects the run's description and metrics; Print emits the
/// description as `# key: value` lines and the result as one JSON line.
class Report {
 public:
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void Metric(const std::string& name, double value, const std::string& unit);
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Prints `message` to stderr and returns exit status 1.
int Fail(const std::string& message);

// ------------------------------------------------- evidence kernel (ds)

/// Matched evidence pairs of one attribute whose frame has at most 64
/// values (the batch kernel's limit).
struct EvidencePairs {
  size_t universe = 0;
  std::vector<const evident::EvidenceSet*> a;
  std::vector<const evident::EvidenceSet*> b;
};

/// \brief Times Dempster combination of every pair, one pair at a time
/// through CombineEvidenceTrusted and per attribute through
/// CombineColumnBatch, as spans `ds.combine_pair` / `ds.combine_batch`
/// (one per pass over the sample). Sets ds.combine_pair_ns and
/// ds.combine_batch_ns (median pass time per pair) in `layer`. Returns
/// false if the two kernels disagree on which pairs totally conflict.
bool MeasureCombination(const std::vector<EvidencePairs>& sample,
                        Tracer* tracer, std::map<std::string, double>* layer);

// ------------------------------------------------------------ workloads

/// The paper-table correctness gate (Tables 2-5 from R_A and R_B).
/// Returns an empty string when every table matches, else the mismatch.
std::string CheckPaperTables();

int GenLookup(const Options& options);
int RunLookup(const Options& options);
int GenAnalytic(const Options& options);
int RunAnalytic(const Options& options);
int RunIntegrate(const Options& options);

/// Self-tests of the harness (span arithmetic) and of each workload's
/// input generation (determinism); returns the number of failures.
int SelfTest();

}  // namespace e2e

#endif  // EVIDENT_E2EBENCH_HARNESS_H_
