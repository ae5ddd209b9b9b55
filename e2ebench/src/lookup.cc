// Workload `lookup`: 4 client sessions send Zipf-skewed key point
// lookups with an evidence predicate against a ~1M-tuple relation T,
// saved as a 64-partition key-range v3 image and opened mapped. About
// 10% of the lookups read a small relation H, which client 0 re-registers
// every 256 of its ops; each re-registration publishes a new catalog
// version and so makes every cached plan stale.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/domain.h"
#include "common/rng.h"
#include "core/scan_stats.h"
#include "query/engine.h"
#include "sessions.h"
#include "storage/erel_format.h"
#include "workload/generator.h"

namespace e2e {

namespace {

using namespace evident;

struct LookupShape {
  size_t tuples;
  size_t h_tuples;
  uint32_t partitions;
  int clients;
  size_t stream_len;  // statements per client before the stream repeats
};

constexpr int kWriteEvery = 256;      // client 0's ops per H re-register
constexpr double kZipfExponent = 0.99;
constexpr double kHReadShare = 0.10;
constexpr int kLadderEvery = 8;       // traced: replay every 8th read
constexpr int kSetups = 3;            // setup_s is the median of these
constexpr size_t kDomainSize = 12;

LookupShape Shape(bool tiny) {
  if (tiny) return {20000, 64, 8, 2, 256};
  return {1000000, 1024, 64, 2, 4096};
}

SchemaPtr MakeSchema(const std::string& prefix, const DomainPtr& domain) {
  return RelationSchema::Make(
             {AttributeDef::Key(prefix + "key"),
              AttributeDef::Definite(prefix + "def0"),
              AttributeDef::Uncertain(prefix + "unc0", domain),
              AttributeDef::Uncertain(prefix + "unc1", domain)})
      .value();
}

DomainPtr MakeDomain() {
  std::vector<std::string> values;
  for (size_t v = 0; v < kDomainSize; ++v) {
    values.push_back("v" + std::to_string(v));
  }
  return Domain::MakeSymbolic("lookup_dom", values).value();
}

Result<ExtendedRelation> Generate(WorkloadGenerator* gen, Rng* rng,
                                  const std::string& name,
                                  const std::string& key_prefix,
                                  const SchemaPtr& schema, size_t tuples) {
  GeneratorOptions evidence;
  evidence.domain_size = kDomainSize;
  ExtendedRelation out(name, schema);
  out.Reserve(tuples);
  const DomainPtr& domain = schema->attribute(2).domain;
  for (size_t i = 0; i < tuples; ++i) {
    ExtendedTuple t;
    t.cells.reserve(4);
    t.cells.emplace_back(Value(key_prefix + std::to_string(i)));
    t.cells.emplace_back(Value(static_cast<int64_t>(rng->Below(1000))));
    for (int u = 0; u < 2; ++u) {
      EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                               gen->RandomEvidence(domain, evidence));
      t.cells.emplace_back(std::move(es));
    }
    if (rng->Chance(0.3)) {
      const double sn = 0.05 + 0.95 * rng->NextDouble();
      t.membership = SupportPair{sn, sn + (1.0 - sn) * rng->NextDouble()};
    }
    EVIDENT_RETURN_NOT_OK(out.InsertTrusted(std::move(t)));
  }
  return out;
}

/// Zipf(kZipfExponent) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = total;
    }
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    return static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string IsSet(Rng* rng) {
  const size_t count = 1 + rng->Below(3);
  std::vector<size_t> values;
  while (values.size() < count) {
    const size_t v = rng->Below(kDomainSize);
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }
  std::sort(values.begin(), values.end());
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", v" : "v") + std::to_string(values[i]);
  }
  return out + "}";
}

/// The result a statement must produce, computed by the engine over an
/// in-memory row-mode catalog holding only the looked-up tuple: the
/// lookup's key predicate keeps at most that tuple, so the reference is
/// exact while costing microseconds instead of a 1M-tuple scan.
Result<Digest> Reference(const ExtendedRelation& source, const std::string& key,
                         const std::string& text) {
  auto row = source.FindByKey({Value(key)});
  ExtendedRelation one(source.name(), source.schema());
  if (row.ok()) EVIDENT_RETURN_NOT_OK(one.Insert(source.row(*row)));
  Catalog catalog;
  EVIDENT_RETURN_NOT_OK(catalog.RegisterRelation(std::move(one)));
  QueryEngine engine(&catalog);
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation out, engine.Execute(text));
  return DigestOf(out);
}

}  // namespace

int GenLookup(const Options& options) {
  const LookupShape shape = Shape(options.tiny);
  WorkloadGenerator gen(options.seed);
  Rng rng(options.seed ^ 0x6c6f6f6b7570ULL);
  const DomainPtr domain = MakeDomain();
  auto t = Generate(&gen, &rng, "T", "k", MakeSchema("", domain), shape.tuples);
  auto h = Generate(&gen, &rng, "H", "h", MakeSchema("h", domain),
                    shape.h_tuples);
  if (!t.ok() || !h.ok()) return Fail("generating T/H failed");

  // Statement streams. Zipf ranks are scattered over the key space by a
  // multiplier coprime with the tuple count, so hot keys land in many
  // partitions rather than all in the first.
  const Zipf zipf_t(shape.tuples);
  const Zipf zipf_h(shape.h_tuples);
  std::unordered_map<std::string, Digest> reference;
  auto statement = [&](bool read_h, const std::string& key,
                       const std::string& is_set) -> Result<Statement> {
    const std::string p = read_h ? "h" : "";
    Statement s;
    s.text = "SELECT " + p + "key, " + p + "def0, " + p + "unc0 FROM " +
             (read_h ? "H" : "T") + " WHERE " + p + "key = \"" + key +
             "\" AND " + p + "unc0 IS " + is_set + " WITH sn > 0";
    auto it = reference.find(s.text);
    if (it == reference.end()) {
      EVIDENT_ASSIGN_OR_RETURN(Digest digest,
                               Reference(read_h ? *h : *t, key, s.text));
      it = reference.emplace(s.text, digest).first;
    }
    s.expected = it->second;
    return s;
  };
  Streams streams(shape.clients);
  for (int c = 0; c < shape.clients; ++c) {
    for (size_t i = 0; i < shape.stream_len; ++i) {
      const bool read_h = rng.Chance(kHReadShare);
      const size_t n = read_h ? shape.h_tuples : shape.tuples;
      const size_t rank = (read_h ? zipf_h : zipf_t).Sample(&rng);
      const size_t id = static_cast<size_t>(
          (static_cast<uint64_t>(rank) * 2654435761ULL) % n);
      auto s = statement(read_h, (read_h ? "h" : "k") + std::to_string(id),
                         IsSet(&rng));
      if (!s.ok()) return Fail("reference: " + s.status().ToString());
      streams[c].push_back(std::move(*s));
    }
  }

  // Warm-up statements: one H lookup and one T lookup per partition (the
  // first key of each key range, as the writer cuts them), so set-up pays
  // every partition's deferred verification before the clients start.
  std::vector<std::string> keys;
  keys.reserve(shape.tuples);
  for (size_t i = 0; i < shape.tuples; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  std::sort(keys.begin(), keys.end());
  Streams warm(1);
  for (uint32_t p = 0; p <= shape.partitions; ++p) {
    const bool read_h = p == shape.partitions;
    const size_t first =
        (p * shape.tuples + shape.partitions - 1) / shape.partitions;
    auto s = statement(read_h, read_h ? "h0" : keys[first], "{v0, v1, v2}");
    if (!s.ok()) return Fail("reference: " + s.status().ToString());
    warm[0].push_back(std::move(*s));
  }

  const std::string dir = options.dir;
  if (!WriteStreams(dir + "/stream.tsv", streams) ||
      !WriteStreams(dir + "/warm.tsv", warm)) {
    return Fail("writing streams failed");
  }
  {
    Catalog h_catalog;
    if (!h_catalog.RegisterRelation(std::move(*h)).ok() ||
        !SaveErelFile(h_catalog, dir + "/h.erel", PartitionSpec{}).ok()) {
      return Fail("saving H failed");
    }
  }
  Catalog catalog;
  Status st = catalog.RegisterRelation(std::move(*t));
  if (st.ok()) {
    st = SaveErelFile(catalog, dir + "/t.erel",
                      PartitionSpec{PartitionSpec::Scheme::kKeyRange,
                                    shape.partitions});
  }
  if (!st.ok()) return Fail("saving T failed: " + st.ToString());
  return 0;
}

int RunLookup(const Options& options) {
  const LookupShape shape = Shape(options.tiny);
  const std::string dir = options.dir;
  Streams streams, warm;
  if (!ReadStreams(dir + "/stream.tsv", &streams) ||
      !ReadStreams(dir + "/warm.tsv", &warm) ||
      static_cast<int>(streams.size()) != shape.clients) {
    return Fail("generated inputs missing in " + dir + "; run gen first");
  }
  // Set-up: open T mapped, load H, register it, warm both statement
  // shapes (T in every partition). Done kSetups times on fresh catalogs;
  // the last one is kept.
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::shared_ptr<const ExtendedRelation> h_master;
  std::vector<double> setup_s, open_ms, warm_ms;
  uint64_t warm_scanned = 0;
  LoadInfo info;
  const UnionOptions union_options;
  for (int k = 0; k < kSetups; ++k) {
    manager.reset();
    catalog.reset();
    const int64_t t0 = NowNs();
    LoadOptions mapped;
    mapped.map = LoadOptions::Map::kAlways;
    auto loaded = LoadErelFile(dir + "/t.erel", mapped, &info);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    const int64_t t1 = NowNs();
    catalog = std::make_unique<Catalog>(std::move(*loaded));
    LoadOptions copied;
    copied.map = LoadOptions::Map::kNever;
    auto h_loaded = LoadErelFile(dir + "/h.erel", copied);
    if (!h_loaded.ok()) return Fail(h_loaded.status().ToString());
    auto h = h_loaded->Snapshot()->GetRelationShared("H");
    if (!h.ok()) return Fail(h.status().ToString());
    h_master = *h;
    Status st = catalog->RegisterRelation(*h_master);
    if (!st.ok()) return Fail(st.ToString());
    const int64_t t2 = NowNs();
    manager = std::make_unique<server::SessionManager>(catalog.get());
    auto session = manager->OpenSession();
    ResetScanStats();
    for (const Statement& s : warm[0]) {
      auto r = session->Execute(s.text);
      if (!r.ok() || DigestOf(*r) != s.expected) {
        return Fail("warm-up result wrong for " + s.text);
      }
    }
    const int64_t t3 = NowNs();
    const PartitionScanStats scan = CurrentScanStats();
    warm_scanned = scan.partitions_considered - scan.partitions_pruned;
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    open_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    warm_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }

  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int c = 0; c < shape.clients; ++c) {
    sessions.push_back(manager->OpenSession());
  }
  auto op = [&](int c, uint64_t i, ClientStats* s) {
    const uint64_t op_id = (static_cast<uint64_t>(c) << 48) | i;
    if (c == 0 && i % kWriteEvery == kWriteEvery - 1) {
      ExtendedRelation copy = *h_master;  // the copy is not timed
      Status st = Status::OK();
      const int64_t t0 = NowNs();
      {
        ScopedSpan op_span(&s->tracer, "op", op_id);
        ScopedSpan reg(&s->tracer, "storage.register", op_id);
        st = catalog->RegisterRelation(std::move(copy), /*replace=*/true);
      }
      const int64_t t1 = NowNs();
      s->Completed(t1 - t0);
      if (s->tracer.enabled()) {
        s->samples["storage.register_ms"].push_back((t1 - t0) * 1e-6);
      }
      if (!st.ok()) s->Fail("re-registering H: " + st.ToString());
      return;
    }
    const auto& stream = streams[c];
    SessionRead(sessions[c].get(), *manager, union_options,
                stream[i % stream.size()], op_id, i % kLadderEvery == 0, s);
  };

  LoopSummary untraced = Summarize(
      RunClosedLoop(shape.clients, options.PhaseSeconds(), false, op));
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  std::string first_error = untraced.first_error;

  Report report;
  report.Info("workload", "lookup");
  report.Info("seed", std::to_string(options.seed));
  report.Info("loop", "closed, " + std::to_string(shape.clients) +
                          " client sessions, each waits for its reply");
  report.Info("T", std::to_string(shape.tuples) + " tuples, " +
                       std::to_string(shape.partitions) +
                       "-partition key-range v3 image, opened " +
                       (info.mapped ? "mapped" : "copied"));
  report.Info("warm_up", std::to_string(warm[0].size()) +
                            " lookups scanning " +
                            std::to_string(warm_scanned) + " partitions");
  report.Info("H", std::to_string(shape.h_tuples) +
                       " tuples, re-registered by client 0 every " +
                       std::to_string(kWriteEvery) + " ops");
  std::set<std::string> distinct;
  for (const auto& stream : streams) {
    for (const Statement& s : stream) distinct.insert(s.text);
  }
  report.Info("statements", std::to_string(shape.stream_len) +
                                " per client, " +
                                std::to_string(distinct.size()) +
                                " distinct, Zipf exponent 0.99");
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
                  static_cast<double>(FileBytes(dir + "/t.erel")) /
                      static_cast<double>(shape.tuples),
                  "B");
  } else {
    const double hits1 = static_cast<double>(manager->plan_cache_hits());
    const double misses1 = static_cast<double>(manager->plan_cache_misses());
    std::vector<ClientStats> clients =
        RunClosedLoop(shape.clients, options.PhaseSeconds(), true, op);
    LoopSummary traced = Summarize(clients);
    attempted += traced.attempted;
    failed += traced.failed;
    if (first_error.empty()) first_error = traced.first_error;
    std::map<std::string, double> layer;
    AddSessionLayers(traced, manager->plan_cache_hits() - hits1,
                     manager->plan_cache_misses() - misses1, &layer);
    layer["storage.open_ms"] = Median(open_ms);
    layer["storage.warm_ms"] = Median(warm_ms);
    AddTraceAccounting(untraced, traced, clients, &layer);
    AddLayerMetrics(layer, &report);
    report.Info("traced_ops", std::to_string(traced.attempted));
    std::vector<const Tracer*> tracers;
    for (const ClientStats& c : clients) tracers.push_back(&c.tracer);
    if (!WriteSpans(dir + "/spans.jsonl", tracers)) {
      return Fail("writing spans failed");
    }
  }
  if (!first_error.empty()) report.Info("first_error", first_error);
  report.Print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace e2e
