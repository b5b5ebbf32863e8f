#include "cqa/check/generator.h"

#include "cqa/approx/random.h"
#include "cqa/logic/printer.h"

namespace cqa {

namespace {

// Distinct stream tag so generator draws never collide with the
// samplers' stream_seed(seed, chunk) streams.
constexpr std::uint64_t kGenStream = 0x47454E4552415445ull;  // "GENERATE"

// "v0", "q3", ...: appended rather than "v" + std::to_string(i), on
// which GCC 12 at -O3 reports a false -Wrestrict.
std::string generator_var(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

constexpr std::size_t kMaxQuantifierNames = 8;

class Gen {
 public:
  Gen(const GenOptions& options, std::uint64_t seed)
      : options_(options), rng_(stream_seed(seed, kGenStream)) {}

  FormulaPtr core() {
    atoms_left_ = options_.max_atoms;
    FormulaPtr f = options_.convex_only
                       ? convex_core()
                       : tree(options_.max_depth);
    for (std::size_t i = options_.quantifiers; i-- > 0;) {
      const std::size_t var = options_.dimension + i;
      // Mostly exists: forall over R of a random matrix of atoms is
      // almost always false, which would starve the volume oracles.
      f = pick(5) == 0 ? Formula::forall(var, f) : Formula::exists(var, f);
    }
    return f;
  }

 private:
  std::size_t pick(std::size_t n) { return rng_.next() % n; }

  Rational coeff() {
    const int mag = options_.coeff_magnitude;
    int num = static_cast<int>(pick(2 * mag + 1)) - mag;
    if (num == 0) num = 1;
    const int den = 1 + static_cast<int>(pick(4));
    return Rational(num, den);
  }

  // An affine (or degree-2 when allowed) polynomial over 1..3 variables,
  // at most one of them quantified when separable_quantifiers is set.
  Polynomial poly() {
    const std::size_t k = options_.dimension;
    const std::size_t m = options_.quantifiers;
    std::size_t nvars = 1 + pick(3);
    Polynomial p = Polynomial::constant(coeff());
    bool used_quantified = false;
    for (std::size_t i = 0; i < nvars; ++i) {
      std::size_t v;
      if (m > 0 && !(options_.separable_quantifiers && used_quantified) &&
          pick(3) == 0) {
        v = k + pick(m);
        used_quantified = true;
      } else {
        v = pick(k);
      }
      Polynomial term = Polynomial::variable(v);
      if (!options_.linear_only && pick(4) == 0) {
        term = term * term;  // degree-2 term
      }
      p += term * coeff();
    }
    return p;
  }

  RelOp op() {
    if (options_.allow_eq_atoms && pick(8) == 0) {
      return pick(2) == 0 ? RelOp::kEq : RelOp::kNe;
    }
    switch (pick(4)) {
      case 0: return RelOp::kLt;
      case 1: return RelOp::kLe;
      case 2: return RelOp::kGt;
      default: return RelOp::kGe;
    }
  }

  FormulaPtr atom() {
    if (atoms_left_ == 0) return pick(2) == 0 ? Formula::make_true()
                                              : Formula::make_false();
    --atoms_left_;
    return Formula::atom(poly(), op());
  }

  FormulaPtr tree(std::size_t depth) {
    if (depth == 0 || atoms_left_ <= 1 || pick(4) == 0) return atom();
    const std::size_t shape = pick(8);
    if (shape == 0) return Formula::f_not(tree(depth - 1));
    std::vector<FormulaPtr> parts;
    const std::size_t fanout = 2 + pick(2);
    for (std::size_t i = 0; i < fanout; ++i) {
      parts.push_back(tree(depth - 1));
    }
    return shape < 4 ? Formula::f_or(std::move(parts))
                     : Formula::f_and(std::move(parts));
  }

  // Convex mode: a conjunction of halfspaces over the output variables
  // (hit-and-run needs a single convex cell).
  FormulaPtr convex_core() {
    std::vector<FormulaPtr> parts;
    const std::size_t n = 2 + pick(options_.max_atoms > 2
                                       ? options_.max_atoms - 1
                                       : 1);
    for (std::size_t i = 0; i < n; ++i) {
      Polynomial p = Polynomial::constant(coeff());
      for (std::size_t v = 0; v < options_.dimension; ++v) {
        if (pick(3) != 0) p += Polynomial::variable(v) * coeff();
      }
      parts.push_back(Formula::atom(p, pick(2) == 0 ? RelOp::kLe
                                                    : RelOp::kGe));
    }
    return Formula::f_and(std::move(parts));
  }

  GenOptions options_;
  Xoshiro rng_;
  std::size_t atoms_left_ = 0;
};

}  // namespace

std::string GeneratedFormula::text() const {
  return print_generated(boxed, dimension);
}

std::string GeneratedFormula::core_text() const {
  return print_generated(core, dimension);
}

std::string print_generated(const FormulaPtr& f, std::size_t dimension) {
  VarTable vars;
  register_generator_vars(&vars, dimension);
  return to_string(f, vars);
}

void register_generator_vars(VarTable* vars, std::size_t dimension) {
  for (std::size_t i = 0; i < dimension; ++i) {
    vars->index_of(generator_var("v", i));
  }
  for (std::size_t i = 0; i < kMaxQuantifierNames; ++i) {
    vars->index_of(generator_var("q", i));
  }
}

std::size_t node_count(const FormulaPtr& f) {
  if (f == nullptr) return 0;
  std::size_t n = 1;
  if (f->kind() == Formula::Kind::kAtom) n += f->poly().num_terms();
  for (const auto& child : f->children()) n += node_count(child);
  return n;
}

FormulaPtr unit_box(std::size_t dimension) {
  std::vector<FormulaPtr> parts;
  for (std::size_t i = 0; i < dimension; ++i) {
    Polynomial v = Polynomial::variable(i);
    parts.push_back(Formula::atom(v * Rational(-1), RelOp::kLe));  // v >= 0
    parts.push_back(
        Formula::atom(v - Polynomial::constant(Rational(1)), RelOp::kLe));
  }
  return Formula::f_and(std::move(parts));
}

GeneratedFormula with_core(FormulaPtr core, std::size_t dimension,
                           std::uint64_t seed) {
  GeneratedFormula g;
  g.core = std::move(core);
  g.box = unit_box(dimension);
  g.boxed = Formula::f_and(g.core, g.box);
  g.dimension = dimension;
  g.seed = seed;
  for (std::size_t i = 0; i < dimension; ++i) {
    g.output_vars.push_back(generator_var("v", i));
  }
  return g;
}

GeneratedFormula FormulaGen::generate(std::uint64_t seed) const {
  Gen gen(options_, seed);
  return with_core(gen.core(), options_.dimension, seed);
}

}  // namespace cqa
