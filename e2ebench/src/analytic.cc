// Workload `analytic`: 2 client sessions cycle through 7 fixed,
// evidence-combining statements over two generated sources A and B
// (60% key overlap, 10% conflicting evidence on shared keys) and a small
// star F, D1, D2, saved hash-partitioned (P = 16) and opened mapped.
// Sessions merge conflicting sources with on_total_conflict = kVacuous.
// The statement set fits in the plan cache, so the operators and the
// evidence kernel dominate.
#include <memory>
#include <thread>

#include "common/domain.h"
#include "common/rng.h"
#include "core/operations.h"
#include "ds/combination.h"
#include "query/engine.h"
#include "sessions.h"
#include "storage/erel_format.h"
#include "workload/generator.h"

namespace e2e {

namespace {

using namespace evident;

struct AnalyticShape {
  size_t tuples;       // per source
  size_t fact_tuples;  // F; D1 and D2 hold a quarter each
  int clients;
  size_t ds_sample;    // matched keys in the ds.* sample
};

constexpr uint32_t kPartitions = 16;
constexpr double kKeyOverlap = 0.6;
constexpr double kConflictRate = 0.1;
constexpr size_t kNarrowFrame = 12;
constexpr size_t kWideFrame = 80;  // > 64 values: the boxed ValueSet path
constexpr int kLadderEvery = 5;    // coprime with the 7-statement cycle
constexpr int kSetups = 5;
constexpr int kCorePasses = 3;

AnalyticShape Shape(bool tiny) {
  if (tiny) return {2000, 1024, 2, 256};
  return {10000, 8192, 2, 4096};
}

const char* const kStatements[] = {
    // Query-time merging: extended union, then an evidence predicate.
    "SELECT key, unc0, unc1 FROM A UNION B WHERE unc0 IS {v1, v2, v3} "
    "WITH sn > 0.2",
    // Inner merge over the wide (boxed) frame.
    "SELECT key, wide FROM A INTERSECT B WITH sn > 0.3",
    // Key equi-join with an evidence residual.
    "SELECT A.key, A.unc0, B.unc1 FROM A JOIN B WHERE A.key = B.key AND "
    "A.unc1 IS {v0, v3, v5} WITH sn > 0",
    // 3-way star join, FROM order hostile to the enumeration.
    "SELECT * FROM D1, D2, F WHERE fd1 = d1k AND fd2 = d2k AND sel = 3 AND "
    "fu IS {u1, u2}",
    // Fused select + project scan.
    "SELECT key, def0, unc0 FROM A WHERE def0 < 200 AND unc0 IS {v5, v6} "
    "WITH sn > 0.1",
    // Bottom 10 by revised support. (Not the top 10: the top holds many
    // ties at sn = 1, and which tied rows LIMIT keeps depends on the
    // storage layout.)
    "SELECT key, unc1 FROM B WHERE unc1 IS {v2, v3} WITH sn > 0 "
    "ORDER BY sn ASC LIMIT 10",
    // Selection over the wide frame.
    "SELECT key, wide FROM B WHERE wide IS {w0, w1, w2, w3, w4, w5, w6, w7} "
    "WITH sn > 0",
};
constexpr size_t kStatementCount = sizeof(kStatements) / sizeof(kStatements[0]);
constexpr size_t kMergeStatements = 2;  // UNION and INTERSECT combine evidence

UnionOptions Vacuous() {
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  return options;
}

DomainPtr Frame(const std::string& name, const std::string& prefix,
                size_t size) {
  std::vector<std::string> values;
  for (size_t v = 0; v < size; ++v) {
    values.push_back(prefix + std::to_string(v));
  }
  return Domain::MakeSymbolic(name, values).value();
}

/// Evidence for source B's copy of a shared entity: a discounted view of
/// A's (consistent sources), or, when `conflicting`, a definite value
/// outside A's focal union (Dempster conflict, often total).
Result<EvidenceSet> SecondView(WorkloadGenerator* gen, Rng* rng,
                               const EvidenceSet& a, bool conflicting,
                               const GeneratorOptions& evidence) {
  if (!conflicting) return DiscountEvidence(a, 0.3 + 0.6 * rng->NextDouble());
  ValueSet support(a.domain()->size());
  for (const auto& [set, mass] : a.mass().focals()) {
    support = support.Union(set);
  }
  const std::vector<size_t> outside = support.Complement().Indices();
  if (outside.empty()) return gen->RandomEvidence(a.domain(), evidence);
  return EvidenceSet::Definite(
      a.domain(), a.domain()->value(outside[rng->Below(outside.size())]));
}

SupportPair RandomMembership(Rng* rng) {
  if (!rng->Chance(0.3)) return SupportPair::Certain();
  const double sn = 0.05 + 0.95 * rng->NextDouble();
  return SupportPair{sn, sn + (1.0 - sn) * rng->NextDouble()};
}

Status BuildSources(uint64_t seed, size_t n, Catalog* catalog) {
  WorkloadGenerator gen(seed);
  Rng rng(seed ^ 0x616e616c79ULL);
  const DomainPtr narrow = Frame("analytic_dom", "v", kNarrowFrame);
  const DomainPtr wide = Frame("analytic_wide", "w", kWideFrame);
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      RelationSchema::Make({AttributeDef::Key("key"),
                            AttributeDef::Definite("def0"),
                            AttributeDef::Uncertain("unc0", narrow),
                            AttributeDef::Uncertain("unc1", narrow),
                            AttributeDef::Uncertain("wide", wide)}));
  GeneratorOptions evidence;
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  const size_t shared = static_cast<size_t>(kKeyOverlap * n);
  for (size_t i = 0; i < n; ++i) {
    ExtendedTuple t;
    t.cells.emplace_back(Value("e" + std::to_string(i)));
    t.cells.emplace_back(Value(static_cast<int64_t>(rng.Below(1000))));
    for (size_t c = 2; c < 5; ++c) {
      EVIDENT_ASSIGN_OR_RETURN(
          EvidenceSet es, gen.RandomEvidence(schema->attribute(c).domain,
                                             evidence));
      t.cells.emplace_back(std::move(es));
    }
    t.membership = RandomMembership(&rng);
    ExtendedTuple u;
    if (i < shared) {
      // Shared entity: same key and definite value (preprocessing's
      // guarantee), evidence from a second, possibly conflicting, view.
      const bool conflicting = rng.Chance(kConflictRate);
      u.cells = {t.cells[0], t.cells[1]};
      for (size_t c = 2; c < 5; ++c) {
        EVIDENT_ASSIGN_OR_RETURN(
            EvidenceSet es,
            SecondView(&gen, &rng, std::get<EvidenceSet>(t.cells[c]),
                       conflicting, evidence));
        u.cells.emplace_back(std::move(es));
      }
    } else {
      u.cells.emplace_back(Value("e" + std::to_string(n + i)));
      u.cells.emplace_back(Value(static_cast<int64_t>(rng.Below(1000))));
      for (size_t c = 2; c < 5; ++c) {
        EVIDENT_ASSIGN_OR_RETURN(
            EvidenceSet es, gen.RandomEvidence(schema->attribute(c).domain,
                                               evidence));
        u.cells.emplace_back(std::move(es));
      }
    }
    u.membership = RandomMembership(&rng);
    EVIDENT_RETURN_NOT_OK(a.InsertTrusted(std::move(t)));
    EVIDENT_RETURN_NOT_OK(b.InsertTrusted(std::move(u)));
  }
  EVIDENT_RETURN_NOT_OK(catalog->RegisterRelation(std::move(a)));
  return catalog->RegisterRelation(std::move(b));
}

/// Fact F (fk, fd1, fd2, fu) over dimensions D1 (d1k, w1) and D2 (d2k,
/// sel), sel in 0..7.
Status BuildStar(uint64_t seed, size_t n, Catalog* catalog) {
  Rng rng(seed ^ 0x73746172ULL);
  WorkloadGenerator gen(seed ^ 0x66ULL);
  const DomainPtr dom = Frame("analytic_star", "u", 4);
  const int64_t dim = static_cast<int64_t>(n / 4);
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr d1_schema,
      RelationSchema::Make(
          {AttributeDef::Key("d1k"), AttributeDef::Definite("w1")}));
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr d2_schema,
      RelationSchema::Make(
          {AttributeDef::Key("d2k"), AttributeDef::Definite("sel")}));
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr f_schema,
      RelationSchema::Make({AttributeDef::Key("fk"),
                            AttributeDef::Definite("fd1"),
                            AttributeDef::Definite("fd2"),
                            AttributeDef::Uncertain("fu", dom)}));
  ExtendedRelation d1("D1", d1_schema), d2("D2", d2_schema), f("F", f_schema);
  for (int64_t i = 0; i < dim; ++i) {
    EVIDENT_RETURN_NOT_OK(d1.InsertTrusted(ExtendedTuple(
        {Value(i), Value(static_cast<int64_t>(rng.Below(16)))},
        SupportPair::Certain())));
    EVIDENT_RETURN_NOT_OK(d2.InsertTrusted(ExtendedTuple(
        {Value(i), Value(static_cast<int64_t>(rng.Below(8)))},
        RandomMembership(&rng))));
  }
  GeneratorOptions evidence;
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es, gen.RandomEvidence(dom, evidence));
    EVIDENT_RETURN_NOT_OK(f.InsertTrusted(ExtendedTuple(
        {Value(i), Value(static_cast<int64_t>(rng.Below(dim))),
         Value(static_cast<int64_t>(rng.Below(dim))), std::move(es)},
        RandomMembership(&rng))));
  }
  EVIDENT_RETURN_NOT_OK(catalog->RegisterRelation(std::move(d1)));
  EVIDENT_RETURN_NOT_OK(catalog->RegisterRelation(std::move(d2)));
  return catalog->RegisterRelation(std::move(f));
}

}  // namespace

int GenAnalytic(const Options& options) {
  const AnalyticShape shape = Shape(options.tiny);
  Catalog catalog;
  Status st = BuildSources(options.seed, shape.tuples, &catalog);
  if (st.ok()) st = BuildStar(options.seed, shape.fact_tuples, &catalog);
  if (!st.ok()) return Fail("generating inputs failed: " + st.ToString());

  // Reference digests: the same statements over the in-memory,
  // unpartitioned catalog the image is saved from.
  QueryEngine engine(&catalog);
  engine.set_union_options(Vacuous());
  std::vector<Statement> statements;
  for (const char* text : kStatements) {
    auto out = engine.Execute(text);
    if (!out.ok()) {
      return Fail(std::string(text) + ": " + out.status().ToString());
    }
    statements.push_back({text, DigestOf(*out)});
  }
  // Client c starts its cycle c * 3 statements in, so the two clients
  // run different statements at any moment. The cycle's length is odd so
  // that the median op is one statement's, not a gap between two.
  Streams streams(shape.clients);
  for (int c = 0; c < shape.clients; ++c) {
    for (size_t i = 0; i < kStatementCount; ++i) {
      streams[c].push_back(statements[(i + 3 * c) % kStatementCount]);
    }
  }
  if (!WriteStreams(options.dir + "/stream.tsv", streams)) {
    return Fail("writing stream failed");
  }
  st = SaveErelFile(catalog, options.dir + "/image.erel",
                    PartitionSpec{PartitionSpec::Scheme::kHash, kPartitions});
  if (!st.ok()) return Fail("saving image failed: " + st.ToString());
  return 0;
}

int RunAnalytic(const Options& options) {
  const AnalyticShape shape = Shape(options.tiny);
  const std::string dir = options.dir;
  Streams streams;
  if (!ReadStreams(dir + "/stream.tsv", &streams) ||
      static_cast<int>(streams.size()) != shape.clients) {
    return Fail("generated inputs missing in " + dir + "; run gen first");
  }
  const UnionOptions union_options = Vacuous();

  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::vector<double> setup_s, open_ms, warm_ms;
  LoadInfo info;
  for (int k = 0; k < kSetups; ++k) {
    manager.reset();
    catalog.reset();
    const int64_t t0 = NowNs();
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(dir + "/image.erel", mapped, &info);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    catalog = std::make_unique<Catalog>(std::move(*loaded));
    const int64_t t1 = NowNs();
    manager = std::make_unique<server::SessionManager>(catalog.get());
    auto session = manager->OpenSession();
    session->engine().set_union_options(union_options);
    for (const Statement& s : streams[0]) {
      auto r = session->Execute(s.text);
      if (!r.ok() || DigestOf(*r) != s.expected) {
        return Fail("warm-up result wrong for " + s.text);
      }
    }
    const int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    open_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    warm_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }

  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int c = 0; c < shape.clients; ++c) {
    sessions.push_back(manager->OpenSession());
    sessions.back()->engine().set_union_options(union_options);
  }
  auto op = [&](int c, uint64_t i, ClientStats* s) {
    const auto& stream = streams[c];
    SessionRead(sessions[c].get(), *manager, union_options,
                stream[i % stream.size()],
                (static_cast<uint64_t>(c) << 48) | i, i % kLadderEvery == 0, s);
  };
  LoopSummary untraced = Summarize(
      RunClosedLoop(shape.clients, options.PhaseSeconds(), false, op));
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  std::string first_error = untraced.first_error;

  const auto snapshot = catalog->Snapshot();
  const ExtendedRelation& a = **snapshot->GetRelationShared("A");
  const ExtendedRelation& b = **snapshot->GetRelationShared("B");
  const size_t image_tuples = a.size() + b.size() +
                              (*snapshot->GetRelation("F"))->size() +
                              (*snapshot->GetRelation("D1"))->size() +
                              (*snapshot->GetRelation("D2"))->size();

  Report report;
  report.Info("workload", "analytic");
  report.Info("seed", std::to_string(options.seed));
  report.Info("loop", "closed, " + std::to_string(shape.clients) +
                          " client sessions cycling " +
                          std::to_string(kStatementCount) + " statements");
  report.Info("sources", "A, B: " + std::to_string(shape.tuples) +
                             " tuples each, 60% key overlap, 10% conflict, "
                             "frames of 12 and 80 values");
  report.Info("star", "F: " + std::to_string(shape.fact_tuples) +
                          " tuples, D1, D2: " +
                          std::to_string(shape.fact_tuples / 4) + " each");
  report.Info("image", std::to_string(kPartitions) +
                           "-partition hash v3 image, opened " +
                           (info.mapped ? "mapped" : "copied"));
  report.Info("union_options", "on_total_conflict = kVacuous");
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("image_dir", dir + " (" + FilesystemType(dir) + ")");
  AddLoopInfo(untraced, &report);

  if (!options.trace) {
    report.Metric("ops_per_s", untraced.ops_per_s, "ops/s");
    report.Metric("op_p50_ms", untraced.p50_ms, "ms");
    report.Metric("op_p99_ms", untraced.p99_ms, "ms");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("image_bytes_per_tuple",
                  static_cast<double>(FileBytes(dir + "/image.erel")) /
                      static_cast<double>(image_tuples),
                  "B");
    if (!first_error.empty()) report.Info("first_error", first_error);
    report.Print(failed == 0, attempted, failed);
    return 0;
  }

  const double hits0 = static_cast<double>(manager->plan_cache_hits());
  const double misses0 = static_cast<double>(manager->plan_cache_misses());
  std::vector<ClientStats> clients =
      RunClosedLoop(shape.clients, options.PhaseSeconds(), true, op);
  LoopSummary traced = Summarize(clients);
  attempted += traced.attempted;
  failed += traced.failed;
  if (first_error.empty()) first_error = traced.first_error;
  std::map<std::string, double> layer;
  AddSessionLayers(traced, manager->plan_cache_hits() - hits0,
                   manager->plan_cache_misses() - misses0, &layer);
  layer["storage.open_ms"] = Median(open_ms);
  layer["storage.warm_ms"] = Median(warm_ms);
  AddTraceAccounting(untraced, traced, clients, &layer);

  // The operators and the evidence kernel, called directly on the
  // catalog's relations from this thread once the clients have stopped.
  Tracer tracer(true);
  std::vector<double> union_ms, join_ms, select_ms;
  const PredicatePtr join_predicate =
      And(Theta(ThetaOperand::Attr("A.key"), ThetaOp::kEq,
                ThetaOperand::Attr("B.key")),
          IsSym("A.unc1", {"v0", "v3", "v5"}));
  const PredicatePtr select_predicate =
      And(Theta(ThetaOperand::Attr("def0"), ThetaOp::kLt,
                ThetaOperand::LitValue(Value(static_cast<int64_t>(200)))),
          IsSym("unc0", {"v5", "v6"}));
  for (int pass = 0; pass < kCorePasses; ++pass) {
    struct Call {
      const char* span;
      std::vector<double>* ms;
      std::function<Result<ExtendedRelation>()> fn;
    };
    const Call calls[] = {
        {"core.union", &union_ms, [&] { return Union(a, b, union_options); }},
        {"core.join", &join_ms,
         [&] {
           return Join(a, b, join_predicate, MembershipThreshold::SnGreater(0));
         }},
        {"core.select", &select_ms,
         [&] {
           return Select(a, select_predicate,
                         MembershipThreshold::SnGreater(0.1));
         }},
    };
    for (const Call& call : calls) {
      Result<ExtendedRelation> out = Status::Internal("not run");
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(&tracer, call.span, pass);
        out = call.fn();
      }
      call.ms->push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (!out.ok()) {
        ++failed;
        if (first_error.empty()) {
          first_error = std::string(call.span) + ": " + out.status().ToString();
        }
      }
    }
  }
  layer["core.union_ms"] = Median(union_ms);
  layer["core.join_ms"] = Median(join_ms);
  layer["core.select_ms"] = Median(select_ms);

  // ds sample: the first ds_sample shared keys' narrow-frame evidence.
  std::vector<EvidencePairs> sample(2);
  size_t matched = 0;
  for (const ExtendedTuple& t : a.rows()) {
    auto row = b.FindByKey(a.KeyOf(t));
    if (!row.ok()) continue;
    ++matched;
    if (sample[0].a.size() >= shape.ds_sample) continue;
    for (size_t c = 0; c < 2; ++c) {
      sample[c].universe = kNarrowFrame;
      sample[c].a.push_back(&std::get<EvidenceSet>(t.cells[2 + c]));
      sample[c].b.push_back(&std::get<EvidenceSet>(b.row(*row).cells[2 + c]));
    }
  }
  if (!MeasureCombination(sample, &tracer, &layer)) {
    ++failed;
    if (first_error.empty()) first_error = "ds: kernels disagree on conflicts";
  }
  // Per op: matched pairs x 3 uncertain attributes, combined by the two
  // merge statements of the cycle.
  layer["ds.combinations_per_op"] =
      static_cast<double>(matched * 3 * kMergeStatements) /
      static_cast<double>(kStatementCount);
  AddLayerMetrics(layer, &report);
  report.Info("traced_ops", std::to_string(traced.attempted));
  std::vector<const Tracer*> tracers;
  for (const ClientStats& c : clients) tracers.push_back(&c.tracer);
  tracers.push_back(&tracer);
  if (!WriteSpans(dir + "/spans.jsonl", tracers)) {
    return Fail("writing spans failed");
  }
  if (!first_error.empty()) report.Info("first_error", first_error);
  report.Print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace e2e
