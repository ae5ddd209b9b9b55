#include "sessions.h"

#include <fstream>
#include <sstream>

#include "core/scan_stats.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"

namespace e2e {

bool WriteStreams(const std::string& path, const Streams& streams) {
  std::ofstream out(path);
  for (size_t c = 0; c < streams.size(); ++c) {
    for (const Statement& s : streams[c]) {
      out << c << '\t' << s.expected.rows << '\t' << s.expected.hash << '\t'
          << s.text << '\n';
    }
  }
  return static_cast<bool>(out);
}

bool ReadStreams(const std::string& path, Streams* streams) {
  std::ifstream in(path);
  if (!in) return false;
  streams->clear();
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    size_t client = 0;
    Statement s;
    if (!(fields >> client >> s.expected.rows >> s.expected.hash) ||
        fields.get() != '\t' || !std::getline(fields, s.text) ||
        s.text.empty()) {
      return false;
    }
    if (streams->size() <= client) streams->resize(client + 1);
    (*streams)[client].push_back(std::move(s));
  }
  return !streams->empty();
}

namespace {

/// Median of the named per-layer samples (0 when there are none).
double MedianSample(const LoopSummary& summary, const std::string& name) {
  auto it = summary.samples.find(name);
  return it == summary.samples.end() ? 0.0 : Median(it->second);
}

double SpanUs(const Tracer& tracer, int32_t index) {
  const Span& s = tracer.spans()[index];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
}

/// The ladder: the statement's parse, bind, optimize, lower and execute
/// phases timed separately. Returns false if any phase fails or the
/// result's digest differs from the expected one.
bool Ladder(const evident::Catalog* catalog,
            const evident::UnionOptions& union_options,
            const Statement& statement, uint64_t op_id, double execute_us,
            bool cache_miss, ClientStats* stats) {
  namespace eql = evident::eql;
  Tracer& tracer = stats->tracer;
  ScopedSpan ladder(&tracer, "ladder", op_id);
  int32_t spans[5];
  const evident::Status not_run = evident::Status::Internal("not run");
  evident::Result<eql::ParsedQuery> parsed = not_run;
  evident::Result<eql::LogicalPlan> plan = not_run;
  evident::Result<ExtendedRelation> out = not_run;
  {
    ScopedSpan span(&tracer, "query.parse", op_id);
    spans[0] = span.index();
    parsed = evident::ParseQuery(statement.text);
  }
  if (!parsed.ok()) return false;
  {
    ScopedSpan span(&tracer, "query.bind", op_id);
    spans[1] = span.index();
    plan = eql::BuildPlan(*parsed, catalog, union_options);
  }
  if (!plan.ok()) return false;
  {
    ScopedSpan span(&tracer, "query.optimize", op_id);
    spans[2] = span.index();
    eql::OptimizePlan(&*plan);
  }
  {
    ScopedSpan span(&tracer, "query.lower", op_id);
    spans[3] = span.index();
    eql::LowerToFusedPipelines(&*plan);
  }
  {
    ScopedSpan span(&tracer, "query.execute", op_id);
    spans[4] = span.index();
    out = eql::ExecutePlan(*plan);
  }
  if (!out.ok() || DigestOf(*out) != statement.expected) return false;
  const char* names[5] = {"query.parse_us", "query.bind_us",
                          "query.optimize_us", "query.lower_us",
                          "query.execute_us"};
  double us[5];
  for (int i = 0; i < 5; ++i) {
    us[i] = SpanUs(tracer, spans[i]);
    stats->samples[names[i]].push_back(us[i]);
  }
  // A plan-cache hit skips bind, optimize and lower inside the session.
  const double planning = cache_miss ? us[1] + us[2] + us[3] : 0.0;
  stats->samples["server.self_us"].push_back(execute_us - us[0] - us[4] -
                                             planning);
  return true;
}

}  // namespace

void SessionRead(evident::server::Session* session,
                 const evident::server::SessionManager& manager,
                 const evident::UnionOptions& union_options,
                 const Statement& statement, uint64_t op_id, bool ladder,
                 ClientStats* stats) {
  Tracer& tracer = stats->tracer;
  const uint64_t hits_before = session->plan_cache_hits();
  int32_t execute_span = -1;
  evident::ResetScanStats();
  const int64_t t0 = NowNs();
  evident::Result<ExtendedRelation> result =
      evident::Status::Internal("not run");
  {
    ScopedSpan op(&tracer, "op", op_id);
    ScopedSpan execute(&tracer, "server.execute", op_id);
    execute_span = execute.index();
    result = session->Execute(statement.text);
  }
  const int64_t t1 = NowNs();
  const evident::PartitionScanStats scan = evident::CurrentScanStats();
  stats->Completed(t1 - t0);
  stats->counters["partitions_considered"] +=
      static_cast<double>(scan.partitions_considered);
  stats->counters["partitions_pruned"] +=
      static_cast<double>(scan.partitions_pruned);
  if (!result.ok()) {
    stats->Fail(statement.text + ": " + result.status().ToString());
    return;
  }
  if (DigestOf(*result) != statement.expected) {
    stats->Fail(statement.text + ": result digest differs from reference");
    return;
  }
  if (!tracer.enabled()) return;
  const double execute_us = SpanUs(tracer, execute_span);
  stats->samples["server.execute_us"].push_back(execute_us);
  if (ladder) {
    const bool miss = session->plan_cache_hits() == hits_before;
    if (!Ladder(manager.catalog(), union_options, statement, op_id,
                execute_us, miss, stats)) {
      stats->Fail(statement.text + ": ladder replay failed or differs");
    }
  }
}

void AddSessionLayers(const LoopSummary& traced, double cache_hits,
                      double cache_misses,
                      std::map<std::string, double>* layer) {
  for (const char* name :
       {"server.execute_us", "server.self_us", "query.parse_us",
        "query.bind_us", "query.optimize_us", "query.lower_us",
        "query.execute_us", "storage.register_ms"}) {
    (*layer)[name] = MedianSample(traced, name);
  }
  const double lookups = cache_hits + cache_misses;
  (*layer)["server.plan_cache_hit_frac"] =
      lookups > 0 ? cache_hits / lookups : 0;
  auto counter = [&](const char* name) {
    auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0 : it->second;
  };
  const double considered = counter("partitions_considered");
  (*layer)["storage.partitions_pruned_frac"] =
      considered > 0 ? counter("partitions_pruned") / considered : 0;
}

void AddTraceAccounting(const LoopSummary& untraced, const LoopSummary& traced,
                        const std::vector<ClientStats>& clients,
                        std::map<std::string, double>* layer) {
  (*layer)["trace.overhead_frac"] = traced.p50_ms / untraced.p50_ms - 1.0;
  std::vector<double> self_ns;
  std::vector<double> total_ns;
  for (const ClientStats& c : clients) {
    const auto& spans = c.tracer.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 || std::string(spans[i].name) != "op") continue;
      self_ns.push_back(static_cast<double>(self[i]));
      total_ns.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    }
  }
  const double total = Median(total_ns);
  (*layer)["trace.unaccounted_frac"] = total > 0 ? Median(self_ns) / total : 0;
}

void AddLayerMetrics(const std::map<std::string, double>& layer,
                     Report* report) {
  static const char* const kMetrics[][2] = {
      {"server.execute_us", "us"},
      {"server.self_us", "us"},
      {"server.plan_cache_hit_frac", "1"},
      {"query.parse_us", "us"},
      {"query.bind_us", "us"},
      {"query.optimize_us", "us"},
      {"query.lower_us", "us"},
      {"query.execute_us", "us"},
      {"storage.partitions_pruned_frac", "1"},
      {"storage.open_ms", "ms"},
      {"storage.warm_ms", "ms"},
      {"storage.register_ms", "ms"},
      {"storage.save_ms", "ms"},
      {"integration.preprocess_ms", "ms"},
      {"integration.identify_ms", "ms"},
      {"integration.merge_ms", "ms"},
      {"core.union_ms", "ms"},
      {"core.join_ms", "ms"},
      {"core.select_ms", "ms"},
      {"ds.combine_pair_ns", "ns"},
      {"ds.combine_batch_ns", "ns"},
      {"ds.combinations_per_op", "count"},
      {"trace.overhead_frac", "1"},
      {"trace.unaccounted_frac", "1"},
  };
  for (const auto& metric : kMetrics) {
    auto it = layer.find(metric[0]);
    report->Metric(metric[0], it == layer.end() ? 0.0 : it->second, metric[1]);
  }
}


}  // namespace e2e
