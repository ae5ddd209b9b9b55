// The harness's own checks: span self-time arithmetic on a hand-built
// span tree, and the digest's order independence.
#include <cstdio>

#include "core/schema.h"
#include "harness.h"

namespace e2e {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

Span Make(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void SpanArithmetic() {
  // op [0,100): children execute [10,60) and save [50,80) overlap on
  // [50,60), so they cover [10,80) = 70 and op's self time is 30.
  // execute has a child parse [10,20) and a child that overruns its
  // parent, [55,70), clipped to [55,60): execute's self is 50-10-5 = 35.
  // save has no children: self = duration = 30.
  std::vector<Span> spans = {
      Make("op", 0, 100, -1),     Make("execute", 10, 60, 0),
      Make("save", 50, 80, 0),    Make("parse", 10, 20, 1),
      Make("overrun", 55, 70, 1), Make("other_root", 200, 260, -1),
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self.size() == spans.size(), "one self time per span");
  Expect(self[0] == 30, "op self = 100 - union(children) 70");
  Expect(self[1] == 35, "execute self clips the overrunning child");
  Expect(self[2] == 30, "leaf self = duration");
  Expect(self[3] == 10 && self[4] == 15, "leaves under execute");
  Expect(self[5] == 60, "second root unaffected");
}

void TracerNesting() {
  Tracer tracer(true);
  {
    ScopedSpan op(&tracer, "op", 7);
    { ScopedSpan a(&tracer, "a", 7); }
    { ScopedSpan b(&tracer, "b", 7); }
  }
  { ScopedSpan next(&tracer, "op", 8); }
  const auto& s = tracer.spans();
  Expect(s.size() == 4, "four spans recorded");
  Expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0 &&
             s[3].parent == -1,
         "ScopedSpan nesting sets parents");
  Expect(s[1].op == 7 && s[3].op == 8, "op ids recorded");
  Expect(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns,
         "children lie inside their parent");
  Tracer off(false);
  { ScopedSpan ignored(&off, "op", 1); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void DigestOrderIndependence() {
  using namespace evident;
  SchemaPtr schema =
      RelationSchema::Make(
          {AttributeDef::Key("k"), AttributeDef::Definite("d")})
          .value();
  ExtendedRelation forward("R", schema), backward("R", schema);
  for (int64_t i = 0; i < 5; ++i) {
    (void)forward.Insert(
        ExtendedTuple({Value(i), Value(i * 10)}, SupportPair{0.5, 1.0}));
    (void)backward.Insert(ExtendedTuple({Value(4 - i), Value((4 - i) * 10)},
                                        SupportPair{0.5, 1.0}));
  }
  Expect(DigestOf(forward) == DigestOf(backward), "digest ignores row order");
  ExtendedRelation changed("R", schema);
  for (int64_t i = 0; i < 5; ++i) {
    (void)changed.Insert(ExtendedTuple({Value(i), Value(i * 10)},
                                       SupportPair{i == 3 ? 0.4 : 0.5, 1.0}));
  }
  Expect(DigestOf(changed) != DigestOf(forward), "digest sees a membership");
}

}  // namespace

int SelfTest() {
  SpanArithmetic();
  TracerNesting();
  DigestOrderIndependence();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures;
}

}  // namespace e2e
