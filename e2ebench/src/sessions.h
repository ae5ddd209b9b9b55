// What the two session-driven workloads (lookup, analytic) share: the
// statement stream with its expected digests, one read op through
// Session::Execute with its traced parse/plan/execute ladder, and the
// per-layer metric table every traced run prints.
#ifndef EVIDENT_E2EBENCH_SESSIONS_H_
#define EVIDENT_E2EBENCH_SESSIONS_H_

#include <map>
#include <string>
#include <vector>

#include "core/operations.h"
#include "harness.h"
#include "server/session.h"
#include "storage/catalog.h"

namespace e2e {

/// One statement of a client's stream and the digest its result must
/// have, computed by the generator against an in-memory reference.
struct Statement {
  std::string text;
  Digest expected;
};

/// Per-client statement streams; client c cycles through streams[c].
using Streams = std::vector<std::vector<Statement>>;

bool WriteStreams(const std::string& path, const Streams& streams);
bool ReadStreams(const std::string& path, Streams* streams);


/// \brief Runs `statement` through `session` as one timed op and checks
/// its digest outside the timed region. When traced, the op is a span
/// `op` around `server.execute`; when `ladder` is also set, the same
/// statement is replayed afterwards through the query layer's public
/// phases (ParseQuery, BuildPlan, OptimizePlan, LowerToFusedPipelines,
/// ExecutePlan) under a separate `ladder` root span, which yields the
/// query.* samples and server.self_us for this op.
void SessionRead(evident::server::Session* session,
                 const evident::server::SessionManager& manager,
                 const evident::UnionOptions& union_options,
                 const Statement& statement, uint64_t op_id, bool ladder,
                 ClientStats* stats);

/// Adds the session workloads' per-layer medians from a traced phase
/// (server.*, query.*, storage.register_ms), the plan cache's hit
/// fraction over the phase, and the share of considered partitions the
/// zone maps pruned.
void AddSessionLayers(const LoopSummary& traced, double cache_hits,
                      double cache_misses,
                      std::map<std::string, double>* layer);

/// Adds trace.overhead_frac (the traced phase's op_p50_ms over the
/// untraced phase's, minus 1) and trace.unaccounted_frac (the median self
/// time of `op` root spans -- time in no layer's span -- over their
/// median duration).
void AddTraceAccounting(const LoopSummary& untraced, const LoopSummary& traced,
                        const std::vector<ClientStats>& clients,
                        std::map<std::string, double>* layer);

/// Prints every per-layer metric the benchmark defines, in one fixed
/// order; a layer the workload never calls reports 0.
void AddLayerMetrics(const std::map<std::string, double>& layer,
                     Report* report);

}  // namespace e2e

#endif  // EVIDENT_E2EBENCH_SESSIONS_H_
