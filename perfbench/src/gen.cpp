// Seeded request generators for the two workloads and for the served
// mix of the traced fleet section.
//
// Every sequence is built in blocks with a fixed class composition,
// shuffled within the block, so each run (and each stretch of a run)
// serves the same mix; only the shapes' coordinates depend on the seed.
// Coordinates are n/1000 rationals inside the unit box, so Monte-Carlo
// VOL_I and exact VOL agree and every closed form below applies.

#include <algorithm>
#include <cmath>
#include <set>

#include "bench.h"

namespace perfbench {
namespace {

using cqa::Request;
using cqa::VolumeStrategy;

constexpr double kPi = 3.14159265358979323846;

// Fixed streams for warm-up requests; never used for timed sequences.
constexpr std::uint64_t kWarmupSeed = 0x5eed0f0a11ULL;

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  // Adds `item` unless an identical request was generated before (by
  // this generator or the warm-up set it was primed with).
  bool add(Item item, std::vector<Item>* out) {
    std::string key = item.request.query + "|" +
                      std::to_string(item.request.seed) + "|" +
                      std::to_string(item.request.budget.epsilon) + "|" +
                      std::to_string(item.request.budget.deadline_ms) + "|" +
                      (item.request.strategy ? "forced" : "planned");
    for (const auto& v : item.request.output_vars) key += "|" + v;
    if (!seen_.insert(key).second) return false;
    out->push_back(std::move(item));
    return true;
  }

  void prime(const std::vector<Item>& items) {
    std::vector<Item> sink;
    for (const Item& it : items) add(it, &sink);
  }

  // ---- shapes (text, area/volume in units of 1) ----

  // Axis-aligned 2-D box inside [0, 1]^2.
  std::string box2(const std::string& x, const std::string& y,
                   double* area = nullptr) {
    const auto a = rng_.range(0, 600), w = rng_.range(100, 400);
    const auto c = rng_.range(0, 600), h = rng_.range(100, 400);
    if (area) *area = w * h / 1e6;
    return "(" + milli(a) + " <= " + x + " & " + x + " <= " + milli(a + w) +
           " & " + milli(c) + " <= " + y + " & " + y + " <= " +
           milli(c + h) + ")";
  }

  // Corner triangle {x >= a, y >= c, x + y <= s} inside [0, 1]^2.
  std::string tri2(double* area = nullptr) {
    const auto a = rng_.range(0, 400), c = rng_.range(0, 400);
    const auto s = rng_.range(a + c + 150, std::min<std::int64_t>(
                                               1000, a + c + 600));
    if (area) *area = (s - a - c) * (s - a - c) / 2e6;
    return "(" + milli(a) + " <= x & " + milli(c) + " <= y & x + y <= " +
           milli(s) + ")";
  }

  std::string box3() {
    const auto a = rng_.range(0, 600), b = a + rng_.range(100, 400);
    const auto c = rng_.range(0, 600), d = c + rng_.range(100, 400);
    const auto e = rng_.range(0, 600), f = e + rng_.range(100, 400);
    return "(" + milli(a) + " <= x & x <= " + milli(b) + " & " + milli(c) +
           " <= y & y <= " + milli(d) + " & " + milli(e) + " <= z & z <= " +
           milli(f) + ")";
  }

  std::string tri3() {
    const auto a = rng_.range(0, 250), c = rng_.range(0, 250),
               e = rng_.range(0, 250);
    const auto s = rng_.range(a + c + e + 150,
                              std::min<std::int64_t>(1000, a + c + e + 600));
    return "(" + milli(a) + " <= x & " + milli(c) + " <= y & " + milli(e) +
           " <= z & x + y + z <= " + milli(s) + ")";
  }

  // Three overlapping 3-D corner simplices at fixed corners, jittered by
  // a few thousandths: a heavy exact volume whose cost barely varies.
  std::string tri3_triple() {
    std::string q;
    const std::int64_t base[3][4] = {
        {50, 60, 40, 850}, {150, 30, 90, 900}, {80, 140, 20, 880}};
    for (const auto& b : base) {
      if (!q.empty()) q += " | ";
      const auto a = b[0] + rng_.range(0, 20), c = b[1] + rng_.range(0, 20),
                 e = b[2] + rng_.range(0, 20), s = b[3] + rng_.range(0, 20);
      q += "(" + milli(a) + " <= x & " + milli(c) + " <= y & " + milli(e) +
           " <= z & x + y + z <= " + milli(s) + ")";
    }
    return q;
  }

  // Union of k 2-D cells, boxes and corner triangles mixed.
  std::string union2(int k) {
    std::string q;
    for (int i = 0; i < k; ++i) {
      if (i) q += " | ";
      q += rng_.range(0, 2) == 0 ? tri2() : box2("x", "y");
    }
    return q;
  }

  std::string union3(int k) {
    std::string q;
    for (int i = 0; i < k; ++i) {
      if (i) q += " | ";
      q += rng_.range(0, 1) == 0 ? tri3() : box3();
    }
    return q;
  }

  // ---- Monte-Carlo shapes with closed-form areas ----

  // Disk inside the unit square: area pi r^2.
  std::string disk(double* area, std::int64_t* cx_out = nullptr,
                   std::int64_t* cy_out = nullptr,
                   std::int64_t* r_out = nullptr) {
    const auto r = rng_.range(200, 450);
    const auto cx = rng_.range(r, 1000 - r), cy = rng_.range(r, 1000 - r);
    *area = kPi * r * r / 1e6;
    if (cx_out) *cx_out = cx;
    if (cy_out) *cy_out = cy;
    if (r_out) *r_out = r;
    return "(x - " + milli(cx) + ")^2 + (y - " + milli(cy) + ")^2 <= " +
           std::to_string(r * r) + "/1000000";
  }

  // Disk cut by the half-plane x + y <= s: a circular segment.
  std::string disk_cap(double* area) {
    std::int64_t cx = 0, cy = 0, r = 0;
    double unused = 0;
    const std::string d = disk(&unused, &cx, &cy, &r);
    const auto s = cx + cy + rng_.range(-r * 8 / 10, r * 8 / 10);
    const double rr = r / 1000.0;
    const double dist = (s - cx - cy) / 1000.0 / std::sqrt(2.0);
    *area = rr * rr * (kPi - std::acos(dist / rr)) +
            dist * std::sqrt(rr * rr - dist * dist);
    return d + " & x + y <= " + milli(s);
  }

  // y <= A x^3 + B x with A + B <= 1: area A/4 + B/2 in the unit square.
  std::string cubic(double* area) {
    const auto a = rng_.range(200, 900), b = rng_.range(0, 1000 - a);
    *area = a / 4000.0 + b / 2000.0;
    return "y <= " + milli(a) + "*x^3 + " + milli(b) + "*x";
  }

  std::uint64_t fresh_seed() { return 1 + (rng_.next() >> 1); }

 private:
  Rng rng_;
  std::set<std::string> seen_;
};

Item volume_item(const std::string& query, std::vector<std::string> vars,
                 const std::string& cls, double epsilon) {
  Item it;
  it.request = Request::volume(query).vars(std::move(vars)).epsilon(epsilon);
  it.cls = cls;
  return it;
}

// ---- exact_cold ----

// Block of 24: 9 plain 2-D unions, 4 quantified 2-D, 3 region
// references (2 quantified), 5 plain 3-D unions, 2 quantified 3-D,
// 1 heavy 3-D union. 8 of 24 are quantified, so QE/FM runs.
const char* const kExactBlock[] = {
    "u2", "u2", "u2", "u2", "u2", "u2", "u2", "u2", "u2", "e2", "e2", "e2",
    "e2", "r2", "re2", "re2", "u3", "u3", "u3", "u3", "u3", "e3", "e3",
    "heavy3"};

Item exact_item(Gen& g, const std::string& cls) {
  // Planner-routed at a tight epsilon: exact is the only strategy whose
  // guaranteed error fits, so every request takes the exact pipeline.
  constexpr double kEps = 0.001;
  const std::vector<std::string> xy = {"x", "y"}, xyz = {"x", "y", "z"};
  Rng& r = g.rng();
  Item it;
  if (cls == "u2") {
    it = volume_item(g.union2(static_cast<int>(r.range(1, 5))), xy, cls,
                     kEps);
  } else if (cls == "e2") {
    // A shifted box or a sheared trapezoid under E u, plus 0-2 plain
    // cells outside the quantifier's reach.
    std::string cell;
    if (r.range(0, 1) == 0) {
      const auto a = r.range(0, 300), b = a + r.range(100, 300);
      const auto s0 = r.range(0, 100), s1 = s0 + r.range(50, 300);
      const auto c = r.range(0, 600), d = c + r.range(100, 400);
      cell = "(" + milli(a) + " <= x - u & x - u <= " + milli(b) + " & " +
             milli(s0) + " <= u & u <= " + milli(s1) + " & " + milli(c) +
             " <= y & y <= " + milli(d) + ")";
    } else {
      const auto t = r.range(0, 400), w = r.range(100, 500);
      const auto c = r.range(0, 300), d = c + r.range(100, 150);
      cell = "(0 <= u & u <= " + milli(w) + " & x = u + " + milli(t) +
             " & " + milli(c) + " <= y & 2*y <= " + milli(2 * d) + " + u)";
    }
    const int extra = static_cast<int>(r.range(0, 2));
    it = volume_item("E u. (" + cell + (extra ? " | " + g.union2(extra) : "") +
                         ")",
                     xy, cls, kEps);
  } else if (cls == "r2") {
    it = volume_item("Lot(x, y) | " + g.union2(static_cast<int>(r.range(1, 3))),
                     xy, cls, kEps);
  } else if (cls == "re2") {
    const auto s0 = r.range(0, 150), s1 = s0 + r.range(50, 300);
    it = volume_item("E u. ((Lot(x - u, y) & " + milli(s0) + " <= u & u <= " +
                         milli(s1) + ") | " + g.box2("x", "y") + ")",
                     xy, cls, kEps);
  } else if (cls == "u3") {
    it = volume_item(g.union3(static_cast<int>(r.range(1, 3))), xyz, cls,
                     kEps);
  } else if (cls == "e3") {
    const auto s0 = r.range(0, 150), s1 = s0 + r.range(50, 250);
    it = volume_item("E w. ((Block(x - w, y, z) & " + milli(s0) +
                         " <= w & w <= " + milli(s1) + ") | " +
                         g.union3(static_cast<int>(r.range(0, 1)) + 1) + ")",
                     xyz, cls, kEps);
  } else {  // heavy3: the large-cell-count class that sets p99
    it = volume_item(g.tri3() + " | " + g.tri3() + " | " + g.tri3(), xyz, cls,
                     kEps);
  }
  it.expect_exact = true;
  return it;
}

// ---- mc_poly ----

// Block of 24: 7 disks, 6 disk-and-half-plane segments, 6 cubic
// regions, 4 linear polytopes forced to Monte-Carlo, and 1 disk at a
// finer epsilon (6x the sample), the class that sets p99.
const char* const kMcBlock[] = {
    "disk",  "disk",  "disk",   "disk",   "disk",   "disk",  "disk",  "cap",
    "cap",   "cap",   "cap",    "cap",    "cap",    "cubic", "cubic", "cubic",
    "cubic", "cubic", "cubic",  "forced", "forced", "forced", "forced",
    "fine_disk"};

// The fine_disk class's epsilon; every other mc_poly request uses 0.01.
constexpr double kFineEpsilon = 0.004;

Item mc_item(Gen& g, const std::string& cls, double epsilon) {
  double area = 0;
  std::string q;
  if (cls == "fine_disk") epsilon = kFineEpsilon;
  if (cls == "disk" || cls == "fine_disk") q = g.disk(&area);
  if (cls == "cap") q = g.disk_cap(&area);
  if (cls == "cubic") q = g.cubic(&area);
  if (cls == "forced") {
    q = g.rng().range(0, 1) == 0 ? g.box2("x", "y", &area) : g.tri2(&area);
  }
  Item it = volume_item(q, {"x", "y"}, cls, epsilon);
  it.request.budget.delta = 0.05;
  it.request.seed = g.fresh_seed();
  if (cls == "forced") it.request.strategy = VolumeStrategy::kMonteCarlo;
  it.truth = area;
  return it;
}

// ---- served mix (traced fleet section) ----

// Sentence with a known truth value: E x. E y. x >= a & y >= b &
// x + y <= s holds iff a + b <= s.
Item ask_item(Gen& g) {
  Rng& r = g.rng();
  const auto a = r.range(0, 600), b = r.range(0, 600), s = r.range(0, 1200);
  Item it;
  it.request = Request::ask("E x. E y. x >= " + milli(a) + " & y >= " +
                            milli(b) + " & x + y <= " + milli(s))
                   .build();
  it.cls = "ask";
  it.truth = a + b <= s ? 1.0 : 0.0;
  return it;
}

// Forced-MC requests on one shared query differ only in seed, so the
// worker scheduler may fuse queued ones into one MC batch.
Item batchable_mc_item(Gen& g) {
  Item it = volume_item("(x - 1/2)^2 + (y - 1/2)^2 <= 1/5", {"x", "y"},
                        "mc_batch", 0.02);
  it.request.strategy = VolumeStrategy::kMonteCarlo;
  it.request.vc_dim = 3.0;
  it.request.seed = g.fresh_seed();
  it.truth = kPi / 5;
  return it;
}

// The planner pre-degradation class: a disk-and-half-plane segment at
// epsilon 0.005 under a 10 ms deadline. The cost model prices the
// full Blumer sample above the deadline and plans a smaller sample, so
// the answer is kDegraded by plan, not by timing.
Item predegraded_item(Gen& g) {
  Item it = mc_item(g, "cap", 0.005);
  it.cls = "cap_deadline";
  it.request.budget.deadline_ms = 10;
  return it;
}

// Block of 20: 3 hot repeats (15%), 1 sentence, 6 exact 3-D volumes,
// 5 planner-routed MC volumes at epsilon 0.004, 2 pre-degraded MC
// volumes, 2 batchable forced MC volumes and 1 heavy 3-D exact volume.
// The open loop reaches router cache reads (hot) and writes, kAsk and
// the planner under deadlines; the burst adds MC batching and
// coalescing.
const char* const kServedBlock[] = {
    "hot",   "hot",   "hot",          "ask",          "exact",    "exact",
    "exact", "exact", "exact",        "exact",        "mc",       "mc",
    "mc",    "mc",    "mc",           "cap_deadline", "cap_deadline",
    "mc_batch", "mc_batch", "heavy"};

constexpr std::size_t kHotSetSize = 12;

Item served_cold_item(Gen& g, const std::string& cls) {
  if (cls == "exact") {
    Item it = volume_item(g.union3(static_cast<int>(g.rng().range(2, 3))),
                          {"x", "y", "z"}, "exact", 0.001);
    it.expect_exact = true;
    return it;
  }
  if (cls == "heavy") {
    Item it = volume_item(g.tri3_triple(), {"x", "y", "z"}, "heavy", 0.001);
    it.expect_exact = true;
    return it;
  }
  if (cls == "ask") return ask_item(g);
  if (cls == "mc") {
    const char* const shapes[] = {"disk", "cap", "cubic"};
    return mc_item(g, shapes[g.rng().range(0, 2)], 0.004);
  }
  if (cls == "cap_deadline") return predegraded_item(g);
  return batchable_mc_item(g);
}

template <std::size_t N>
std::vector<std::string> shuffled_block(Rng& r, const char* const (&block)[N]) {
  std::vector<std::string> out(block, block + N);
  for (std::size_t i = N; i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<std::size_t>(r.range(0, i - 1))]);
  }
  return out;
}

}  // namespace

void load_exact_database(cqa::ConstraintDatabase* db) {
  (void)db->add_region("Lot", {"p", "q"},
                       "(100/1000 <= p & p <= 400/1000 & 150/1000 <= q & "
                       "q <= 500/1000) | (250/1000 <= p & 300/1000 <= q & "
                       "p + q <= 900/1000)");
  (void)db->add_region("Block", {"p", "q", "r"},
                       "100/1000 <= p & p <= 450/1000 & 100/1000 <= q & "
                       "q <= 400/1000 & 200/1000 <= r & r <= 600/1000");
}

std::vector<Item> gen_warmup(const std::string& workload, std::size_t n) {
  Gen g(kWarmupSeed);
  std::vector<Item> out;
  std::size_t i = 0;
  while (out.size() < n) {
    if (workload == "exact_cold") {
      g.add(exact_item(g, kExactBlock[i++ % std::size(kExactBlock)]), &out);
    } else if (workload == "mc_poly") {
      g.add(mc_item(g, kMcBlock[i++ % std::size(kMcBlock)], 0.01), &out);
    } else {
      // A few hundred round trips through router and worker (the
      // fleet's first few hundred answers run slower than the rest),
      // one in six an exact or MC volume that spins up the pools and
      // compiles membership kernels.
      const char* const classes[] = {"exact", "ask", "ask", "ask",
                                     "ask",   "ask", "mc",  "ask",
                                     "ask",   "ask", "ask", "ask"};
      g.add(served_cold_item(g, classes[i++ % 12]), &out);
    }
  }
  return out;
}

std::vector<Item> gen_exact_cold(std::uint64_t seed, std::size_t n) {
  Gen g(seed);
  g.prime(gen_warmup("exact_cold", 96));
  std::vector<Item> out;
  while (out.size() < n) {
    for (const std::string& cls : shuffled_block(g.rng(), kExactBlock)) {
      while (!g.add(exact_item(g, cls), &out)) {
      }
    }
  }
  out.resize(n);
  return out;
}

std::vector<Item> gen_mc_poly(std::uint64_t seed, std::size_t n) {
  Gen g(seed);
  std::vector<Item> out;
  while (out.size() < n) {
    for (const std::string& cls : shuffled_block(g.rng(), kMcBlock)) {
      while (!g.add(mc_item(g, cls, 0.01), &out)) {
      }
    }
  }
  out.resize(n);
  return out;
}

ServedMix gen_served_mix(std::uint64_t seed, std::size_t n,
                         std::size_t burst) {
  Gen g(seed);
  g.prime(gen_warmup("fleet", 300));
  ServedMix mix;
  const char* const hot_classes[] = {"exact", "ask", "mc"};
  for (std::size_t i = 0; mix.hot_set.size() < kHotSetSize; ++i) {
    g.add(served_cold_item(g, hot_classes[i % 3]), &mix.hot_set);
  }
  while (mix.sequence.size() < n) {
    for (const std::string& cls : shuffled_block(g.rng(), kServedBlock)) {
      if (cls == "hot") {
        Item it = mix.hot_set[static_cast<std::size_t>(
            g.rng().range(0, kHotSetSize - 1))];
        it.hot = true;
        mix.sequence.push_back(std::move(it));
      } else {
        while (!g.add(served_cold_item(g, cls), &mix.sequence)) {
        }
      }
    }
  }
  mix.sequence.resize(n);
  std::vector<Item> distinct;
  while (distinct.size() < burst) g.add(batchable_mc_item(g), &distinct);
  for (const Item& it : distinct) {
    mix.burst.push_back(it);
    mix.burst.push_back(it);
  }
  return mix;
}

}  // namespace perfbench
