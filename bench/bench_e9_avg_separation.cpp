// E9 -- the Theorem 1 / Theorem 2 proof gadgets, executed.
//
// (a) The AVG translation: finite sets map into (0, Delta) and
//     (1 - Delta, 1); the exact AVG is a monotone function of the
//     cardinality ratio, so an eps-approximate AVG oracle would decide a
//     (c1, c2)-separating sentence -- the reduction at the heart of the
//     inexpressibility of AVG_I^eps for eps < 1/2.
// (b) The good-instance volumes of Lemma 2: VOL(X) tracks card(B)/n, so
//     an eps-approximate VOL_I oracle would decide a (c1, c2)-good
//     sentence -- which AC0 circuits (Lemma 3) cannot.

#include "bench_util.h"
#include "cqa/approx/gadgets.h"
#include "cqa/core/aggregation_engine.h"
#include "cqa/core/constraint_database.h"

namespace {

using namespace cqa;

void print_table() {
  cqa_bench::header(
      "E9: AVG translation gadget + good-instance volumes",
      "AVG is a monotone function of the cardinality ratio; VOL(X) "
      "tracks card(B)/n within 1/n -- both reductions are live");
  AvgSeparationGadget g(Rational(1, 4));
  std::printf("Delta = 1/4\n%-10s %-10s %-14s\n", "n1", "n2",
              "AVG(U1' u U2')");
  for (auto [n1, n2] : std::vector<std::pair<int, int>>{
           {1, 32}, {1, 8}, {1, 2}, {1, 1}, {2, 1}, {8, 1}, {32, 1}}) {
    std::printf("%-10d %-10d %-14s\n", n1, n2,
                g.avg_for_cards(static_cast<std::size_t>(n1),
                                static_cast<std::size_t>(n2))
                    .to_string()
                    .c_str());
  }
  std::printf("\nminimum separable ratio c for eps (Delta = 1/4):\n");
  std::printf("%-8s %-14s\n", "eps", "min_ratio_c");
  for (double eps : {0.05, 0.1, 0.2, 0.3, 0.37, 0.45}) {
    double c = g.min_separable_ratio(eps);
    if (c > 0) {
      std::printf("%-8.2f %-14.3f\n", eps, c);
    } else {
      std::printf("%-8.2f %-14s\n", eps, "(none: eps too large)");
    }
  }

  // Good instances: exact volumes, tracking card(B)/n.
  std::printf("\nLemma-2 good instances (n = 16):\n");
  std::printf("%-20s %-8s %-10s %-10s %-12s\n", "B", "card(B)", "VOL(X)",
              "card/n", "|diff|<=1/n");
  struct Row {
    const char* label;
    std::uint64_t mask;
  } rows[] = {
      {"{0}", 0x1},
      {"alternating", 0x5555},
      {"low half", 0x00ff},
      {"dense", 0x7fff},
  };
  for (const Row& r : rows) {
    GoodInstance inst(16, r.mask);
    Rational vol = inst.vol_x();
    Rational frac(static_cast<std::int64_t>(inst.card_b()), 16);
    Rational diff = (vol - frac).abs();
    std::printf("%-20s %-8zu %-10s %-10s %-12s\n", r.label, inst.card_b(),
                vol.to_string().c_str(), frac.to_string().c_str(),
                diff <= Rational(1, 16) ? "yes" : "NO");
  }
  std::printf("\nLemma-2 thresholds: eps=0.1 -> c1=%.4f c2=%.4f\n",
              GoodInstance::c1(0.1), GoodInstance::c2(0.1));

  // The exact-AVG side: FO+POLY+SUM computes AVG exactly on finite
  // instances, which is what the eps < 1/2 impossibility is *about* --
  // approximation is impossible in FO+POLY, exact aggregation needs SUM.
  ConstraintDatabase db;
  CQA_CHECK(db.add_table("U", std::vector<std::vector<std::int64_t>>{
                                  {1}, {2}, {3}, {10}})
                .is_ok());
  AggregationEngine agg(&db);
  std::printf("\nexact AVG via FO+POLY+SUM on U = {1,2,3,10}: %s\n",
              agg.aggregate(AggregateFn::kAvg, db.parse("U(v)").value(), "v")
                  .value_or_die()
                  .to_string()
                  .c_str());
}

void BM_GoodInstanceVolume(benchmark::State& state) {
  GoodInstance inst(static_cast<std::size_t>(state.range(0)),
                    0x5555555555555555ull);
  for (auto _ : state) {
    auto v = inst.vol_x();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_GoodInstanceVolume)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_AvgGadget(benchmark::State& state) {
  AvgSeparationGadget g(Rational(1, 4));
  for (auto _ : state) {
    auto v = g.avg_for_cards(17, 5);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_AvgGadget);

}  // namespace

CQA_BENCH_MAIN(print_table)
