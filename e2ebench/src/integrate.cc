// Workload `integrate`: the write path. One client runs the paper's
// Figure-1 pipeline on every op -- IntegrationPipeline::Run with
// paper::PaperPipelineConfig() and on_total_conflict = kVacuous over a
// pair of raw survey exports -- registers the integrated relation in a
// live catalog under one of two rotating names, and saves the catalog as
// a hash-partitioned v3 image (SaveErelFile always fsyncs).
#include <set>
#include <thread>

#include "common/rng.h"
#include "core/operations.h"
#include "integration/pipeline.h"
#include "sessions.h"
#include "storage/erel_format.h"
#include "workload/paper_survey.h"

namespace e2e {

namespace {

using namespace evident;

struct IntegrateShape {
  size_t rows;  // per export
  uint32_t partitions;
};

constexpr double kOverlap = 0.6;
constexpr int kNames = 2;  // rotating relation names in the live catalog
constexpr int kSetups = 9;  // each is one op: cheap

IntegrateShape Shape(bool tiny) {
  if (tiny) return {60, 4};
  return {250, 8};
}

const char* const kMenuItems[] = {
    "kungpao", "mapotofu", "dumpling", "congee", "hotpot",   "noodles",
    "wonton",  "hotdish",  "stew",     "dimsum", "roastduck", "burger",
    "lasagna", "biryani",  "korma",    "tandoori", "naan",    "kebab",
    "padthai", "special1", "chefsurprise"};

/// One source's raw survey export over restaurants `ids`. Definite
/// attributes derive from the restaurant id alone, so the two sources
/// agree on them; menus, votes and memberships are the source's own.
/// Source B words its rating votes as the paper's value map expects.
RawTable Export(const std::string& name, const std::vector<size_t>& ids,
                uint64_t seed, bool rating_words, Rng* rng) {
  static const char* const kRatings[] = {"ex", "gd", "avg"};
  static const char* const kRatingWords[] = {"excellent", "good", "average"};
  RawTable t;
  t.name = name;
  t.columns = {"rname", "street", "bldg-no", "phone", "menu",
               "dish_votes", "rating_votes", "sn", "sp"};
  for (size_t id : ids) {
    Rng fixed(seed * 1000003ULL + id);
    std::vector<std::string> row = {
        "rest" + std::to_string(id),
        "street" + std::to_string(fixed.Below(50)),
        std::to_string(fixed.Below(9999)),
        "555-" + std::to_string(1000 + fixed.Below(9000))};
    std::string menu;
    const size_t items = 2 + rng->Below(5);
    for (size_t m = 0; m < items; ++m) {
      const size_t item =
          rng->Below(sizeof(kMenuItems) / sizeof(kMenuItems[0]));
      menu += (m ? "|" : "") + std::string(kMenuItems[item]);
    }
    row.push_back(menu);
    std::string dishes;
    const size_t first = 1 + rng->Below(36);
    const size_t count = 1 + rng->Below(3);
    for (size_t d = 0; d < count; ++d) {
      dishes += (d ? "; d" : "d") + std::to_string(1 + (first + 7 * d) % 36) +
                ":" + std::to_string(1 + rng->Below(5));
    }
    row.push_back(dishes);
    std::string ratings;
    for (size_t r = 0, n = 1 + rng->Below(3); r < n; ++r) {
      ratings += std::string(r ? "; " : "") +
                 (rating_words ? kRatingWords[r] : kRatings[r]) + ":" +
                 std::to_string(1 + rng->Below(6));
    }
    row.push_back(ratings);
    const bool unsure = rng->Chance(0.1);
    row.push_back(unsure ? "0.8" : "1");
    row.push_back("1");
    t.rows.push_back(std::move(row));
  }
  return t;
}

}  // namespace

int RunIntegrate(const Options& options) {
  const IntegrateShape shape = Shape(options.tiny);
  // Inputs: restaurant ids [0, rows) in A; B shares the first 60% and
  // has its own tail.
  const size_t shared = static_cast<size_t>(kOverlap * shape.rows);
  std::vector<size_t> ids_a, ids_b;
  for (size_t i = 0; i < shape.rows; ++i) {
    ids_a.push_back(i);
    ids_b.push_back(i < shared ? i : shape.rows + i);
  }
  Rng rng(options.seed);
  const RawTable raw_a = Export("RA", ids_a, options.seed, false, &rng);
  const RawTable raw_b = Export("RB", ids_b, options.seed, true, &rng);
  std::set<std::string> keys;
  for (const RawTable* t : {&raw_a, &raw_b}) {
    for (const auto& row : t->rows) keys.insert(row[0]);
  }

  auto config = paper::PaperPipelineConfig();
  if (!config.ok()) return Fail(config.status().ToString());
  config->merge_options.on_total_conflict = TotalConflictPolicy::kVacuous;
  const IntegrationPipeline pipeline(*config);
  const std::string path = options.dir + "/integrated.erel";
  const PartitionSpec spec{PartitionSpec::Scheme::kHash, shape.partitions};

  // The reference: key-matched tuple merging is exactly the extended
  // union of the preprocessed sources, so Union over them -- another
  // operator than MergeTuples -- gives the digest every op must match.
  const AttributePreprocessor pre_a(config->global_schema,
                                   config->derivations_a, config->membership_a);
  const AttributePreprocessor pre_b(config->global_schema,
                                   config->derivations_b, config->membership_b);
  Digest reference;
  {
    auto a = pre_a.Run(raw_a);
    auto b = pre_b.Run(raw_b);
    if (!a.ok() || !b.ok()) return Fail("preprocessing the exports failed");
    auto merged = Union(*a, *b, config->merge_options);
    if (!merged.ok()) return Fail(merged.status().ToString());
    reference = DigestOf(*merged);
  }
  // Checks one integrated relation: |keys(A) u keys(B)| rows, masses
  // summing to 1, and the reference digest.
  auto check = [&](const ExtendedRelation& integrated) -> std::string {
    if (integrated.size() != keys.size()) {
      return std::to_string(integrated.size()) + " rows, expected " +
             std::to_string(keys.size());
    }
    if (!MassesSumToOne(integrated)) return "a mass function does not sum to 1";
    return DigestOf(integrated) == reference ? ""
                                             : "digest differs from Union's";
  };

  std::unique_ptr<Catalog> catalog;
  std::string first_error;

  // op i: integrate, register under a rotating name, save the catalog.
  // `held` shares the result's column image (a handle copy) so it can be
  // checked after the timed region.
  auto op = [&](int, uint64_t i, ClientStats* s) {
    Tracer* tracer = &s->tracer;
    const std::string name = "integrated" + std::to_string(i % kNames);
    ExtendedRelation held;
    Status st = Status::OK();
    const int64_t t0 = NowNs();
    {
      ScopedSpan op_span(tracer, "op", i);
      ExtendedRelation merged;
      if (!tracer->enabled()) {
        auto run = pipeline.Run(raw_a, raw_b);
        if (run.ok()) merged = std::move(run->integrated);
        st = run.status();
      } else {
        // The same calls IntegrationPipeline::Run makes, one span each.
        Result<ExtendedRelation> a = Status::Internal("not run");
        Result<ExtendedRelation> b = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "integration.preprocess", i);
          a = pre_a.Run(raw_a);
          b = pre_b.Run(raw_b);
        }
        Result<MatchingInfo> matching = Status::Internal("not run");
        if (a.ok() && b.ok()) {
          ScopedSpan span(tracer, "integration.identify", i);
          matching = MatchByKey(*a, *b);
        }
        Result<ExtendedRelation> out = Status::Internal("not run");
        if (matching.ok()) {
          ScopedSpan span(tracer, "integration.merge", i);
          out = MergeTuples(*a, *b, *matching, config->merge_options);
        }
        if (out.ok()) merged = std::move(*out);
        st = !a.ok() ? a.status()
             : !b.ok() ? b.status()
             : !matching.ok() ? matching.status()
                              : out.status();
      }
      if (st.ok()) {
        merged.set_name(name);
        held = merged;
        {
          ScopedSpan span(tracer, "storage.register", i);
          st = catalog->RegisterRelation(std::move(merged), /*replace=*/true);
        }
      }
      if (st.ok()) {
        ScopedSpan span(tracer, "storage.save", i);
        st = SaveErelFile(*catalog, path, spec);
      }
    }
    s->Completed(NowNs() - t0);
    if (!st.ok()) {
      s->Fail(st.ToString());
      return;
    }
    const std::string wrong = check(held);
    if (!wrong.empty()) s->Fail("op " + std::to_string(i) + ": " + wrong);
  };

  // Set-up: a fresh live catalog and one warm-up op, kSetups times.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const int64_t t0 = NowNs();
    catalog = std::make_unique<Catalog>();
    ClientStats warm;
    op(0, 0, &warm);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (warm.failed) return Fail("warm-up failed: " + warm.first_error);
  }

  std::vector<ClientStats> untraced_clients =
      RunClosedLoop(1, options.PhaseSeconds(), false, op);
  LoopSummary untraced = Summarize(untraced_clients);
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  first_error = untraced.first_error;
  size_t saved_tuples = 0;
  for (const auto& [name, relation] : catalog->Snapshot()->relations()) {
    saved_tuples += relation->size();
  }

  Report report;
  report.Info("workload", "integrate");
  report.Info("seed", std::to_string(options.seed));
  report.Info("loop", "closed, 1 client");
  report.Info("exports", std::to_string(shape.rows) +
                             " rows each, 60% of restaurants in both, "
                             "agreeing definite attributes");
  report.Info("integrated_tuples", std::to_string(keys.size()));
  report.Info("live_catalog", std::to_string(kNames) +
                                  " rotating relation names, replaced per op");
  report.Info("image", std::to_string(shape.partitions) +
                           "-partition hash v3 image of the live catalog");
  report.Info("flush", "SaveErelFile fsyncs every save");
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("image_dir",
              options.dir + " (" + FilesystemType(options.dir) + ")");
  report.Info("reference_digest", std::to_string(reference.rows) + ":" +
                                      std::to_string(reference.hash));
  AddLoopInfo(untraced, &report);

  if (!options.trace) {
    report.Metric("ops_per_s", untraced.ops_per_s, "ops/s");
    report.Metric("op_p50_ms", untraced.p50_ms, "ms");
    report.Metric("op_p99_ms", untraced.p99_ms, "ms");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("image_bytes_per_tuple",
                  static_cast<double>(FileBytes(path)) /
                      static_cast<double>(saved_tuples),
                  "B");
    if (!first_error.empty()) report.Info("first_error", first_error);
    report.Print(failed == 0, attempted, failed);
    return 0;
  }

  std::vector<ClientStats> clients =
      RunClosedLoop(1, options.PhaseSeconds(), true, op);
  LoopSummary traced = Summarize(clients);
  attempted += traced.attempted;
  failed += traced.failed;
  if (first_error.empty()) first_error = traced.first_error;

  std::map<std::string, std::vector<double>> span_ms;
  for (const Span& span : clients[0].tracer.spans()) {
    span_ms[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
  }
  std::map<std::string, double> layer;
  for (const char* name :
       {"integration.preprocess", "integration.identify", "integration.merge",
        "storage.register", "storage.save"}) {
    layer[std::string(name) + "_ms"] = Median(span_ms[name]);
  }
  AddTraceAccounting(untraced, traced, clients, &layer);

  // ds sample: every matched pair's uncertain attributes, from one run.
  auto run = pipeline.Run(raw_a, raw_b);
  if (!run.ok()) return Fail(run.status().ToString());
  std::vector<EvidencePairs> sample;
  const SchemaPtr& schema = run->preprocessed_a.schema();
  for (size_t c = 0; c < schema->size(); ++c) {
    if (schema->attribute(c).kind != AttributeKind::kUncertain) continue;
    EvidencePairs pairs;
    pairs.universe = schema->attribute(c).domain->size();
    for (const TupleMatch& m : run->matching.matches) {
      pairs.a.push_back(
          &std::get<EvidenceSet>(run->preprocessed_a.row(m.left_row).cells[c]));
      pairs.b.push_back(&std::get<EvidenceSet>(
          run->preprocessed_b.row(m.right_row).cells[c]));
    }
    sample.push_back(std::move(pairs));
  }
  Tracer tracer(true);
  if (!MeasureCombination(sample, &tracer, &layer)) {
    ++failed;
    if (first_error.empty()) first_error = "ds: kernels disagree on conflicts";
  }
  layer["ds.combinations_per_op"] =
      static_cast<double>(run->matching.matches.size() * sample.size());
  AddLayerMetrics(layer, &report);
  report.Info("traced_ops", std::to_string(traced.attempted));
  if (!WriteSpans(options.dir + "/spans.jsonl",
                  {&clients[0].tracer, &tracer})) {
    return Fail("writing spans failed");
  }
  if (!first_error.empty()) report.Info("first_error", first_error);
  report.Print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace e2e
