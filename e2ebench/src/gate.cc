// Correctness gate run before any timing: the paper's Tables 2-5
// recomputed from R_A and R_B with the extended operators, plus the key
// equi-join of R_A and R_B. A mismatch refuses the whole run.
#include <string>

#include "core/operations.h"
#include "harness.h"
#include "workload/paper_fixtures.h"

namespace e2e {

namespace {

using namespace evident;

/// Empty when `got` equals `want` key by key within the paper's printed
/// precision, else a description of the first difference.
std::string Compare(const std::string& table, const ExtendedRelation& got,
                    const ExtendedRelation& want) {
  if (got.size() != want.size()) {
    return table + ": " + std::to_string(got.size()) + " tuples, expected " +
           std::to_string(want.size());
  }
  for (const ExtendedTuple& expected : want.rows()) {
    auto row = got.FindByKey(want.KeyOf(expected));
    if (!row.ok()) return table + ": missing " + expected.ToString(3);
    const ExtendedTuple& actual = got.row(*row);
    bool same = actual.cells.size() == expected.cells.size() &&
                actual.membership.ApproxEquals(expected.membership,
                                               paper::kPaperEps);
    for (size_t c = 0; same && c < expected.cells.size(); ++c) {
      same = CellApproxEquals(actual.cells[c], expected.cells[c],
                              paper::kPaperEps);
    }
    if (!same) {
      return table + ": got " + actual.ToString(3) + ", expected " +
             expected.ToString(3);
    }
  }
  return "";
}

std::string CheckJoin(const ExtendedRelation& ra, const ExtendedRelation& rb) {
  auto joined = Join(ra, rb,
                     Theta(ThetaOperand::Attr("RA.rname"), ThetaOp::kEq,
                           ThetaOperand::Attr("RB.rname")),
                     MembershipThreshold::SnGreater(0.0));
  if (!joined.ok()) return "join: " + joined.status().ToString();
  size_t shared = 0;
  for (const ExtendedTuple& a : ra.rows()) {
    auto b = rb.FindByKey(ra.KeyOf(a));
    if (!b.ok()) continue;
    ++shared;
    // The joined tuple pairs a with its namesake b; its membership is the
    // product of the two (a definite equality supports the pair fully).
    const SupportPair want = a.membership.Multiply(rb.row(*b).membership);
    bool found = false;
    for (const ExtendedTuple& j : joined->rows()) {
      if (j.cells[0] == a.cells[0]) {
        found = j.membership.ApproxEquals(want, 1e-12);
      }
    }
    if (!found) return "join: wrong or missing pair for " + a.ToString(3);
  }
  if (joined->size() != shared) {
    return "join: " + std::to_string(joined->size()) + " pairs, expected " +
           std::to_string(shared);
  }
  return "";
}

}  // namespace

std::string CheckPaperTables() {
  auto ra = paper::TableRA();
  auto rb = paper::TableRB();
  if (!ra.ok() || !rb.ok()) return "paper fixtures failed to build";
  struct Case {
    const char* table;
    Result<ExtendedRelation> got;
    Result<ExtendedRelation> want;
  };
  Case cases[] = {
      {"Table 2",
       Select(*ra, IsSym("speciality", {"si"}),
              MembershipThreshold::SnGreater(0.0)),
       paper::ExpectedTable2()},
      {"Table 3",
       Select(*ra, And(IsSym("speciality", {"mu"}), IsSym("rating", {"ex"})),
              MembershipThreshold::SnGreater(0.0)),
       paper::ExpectedTable3()},
      {"Table 4", Union(*ra, *rb), paper::ExpectedTable4()},
      {"Table 5", Project(*ra, {"rname", "phone", "speciality", "rating"}),
       paper::ExpectedTable5()},
  };
  for (Case& c : cases) {
    if (!c.got.ok()) {
      return std::string(c.table) + ": " + c.got.status().ToString();
    }
    if (!c.want.ok()) return std::string(c.table) + ": fixture failed";
    std::string diff = Compare(c.table, *c.got, *c.want);
    if (!diff.empty()) return diff;
  }
  return CheckJoin(*ra, *rb);
}

}  // namespace e2e
