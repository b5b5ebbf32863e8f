#include "cqa/logic/parser.h"

#include <cctype>

namespace cqa {

std::size_t VarTable::index_of(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);  // re-check: another interner may have won
  if (it != index_.end()) return it->second;
  std::size_t idx = names_.size();
  index_.emplace(name, idx);
  names_.push_back(name);
  return idx;
}

int VarTable::find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? -1 : static_cast<int>(it->second);
}

std::string VarTable::name_of(std::size_t i) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (i < names_.size()) return names_[i];
  // Appended: GCC 12 at -O3 reports a false -Wrestrict on
  // "x" + std::to_string(i).
  std::string name = "x";
  name += std::to_string(i);
  return name;
}

namespace {

// Caps found by fuzzing the parser: unbounded exponents overflow
// std::stoul (and blow up Polynomial::pow), and unbounded grammar
// recursion overflows the stack on pathological nesting. Both must
// surface as Status::invalid, never as a crash.
constexpr unsigned kMaxExponent = 1000;
constexpr int kMaxParseDepth = 200;

class Parser {
 public:
  Parser(const std::string& text, VarTable* vars)
      : text_(text), vars_(vars) {}

  Result<FormulaPtr> parse() {
    auto f = formula();
    if (!f.is_ok()) return f;
    skip_ws();
    if (pos_ != text_.size()) {
      return Status::invalid("trailing input at offset " +
                             std::to_string(pos_) + ": " + text_.substr(pos_));
    }
    return f;
  }

  Result<Polynomial> parse_poly() {
    auto p = expr();
    if (!p.is_ok()) return p;
    skip_ws();
    if (pos_ != text_.size()) {
      return Status::invalid("trailing input in polynomial: " +
                             text_.substr(pos_));
    }
    return p;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_str(const char* s) {
    skip_ws();
    std::size_t len = std::string(s).size();
    if (text_.compare(pos_, len, s) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Status err(const std::string& msg) {
    return Status::invalid(msg + " at offset " + std::to_string(pos_));
  }

  bool at_ident() {
    char c = peek();
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }

  std::string ident() {
    skip_ws();
    std::string out;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      out.push_back(text_[pos_++]);
    }
    return out;
  }

  Result<Rational> number() {
    skip_ws();
    std::string tok;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      tok.push_back(text_[pos_++]);
    }
    if (tok.empty()) return err("expected number");
    auto r = Rational::from_string(tok);
    if (!r.is_ok()) return r.status();
    Rational val = r.value();
    // Optional '/denominator' for rational literals.
    std::size_t save = pos_;
    if (eat('/')) {
      skip_ws();
      if (pos_ < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        std::string den;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          den.push_back(text_[pos_++]);
        }
        auto d = Rational::from_string(den);
        if (!d.is_ok()) return d.status();
        if (d.value().is_zero()) return err("division by zero literal");
        return val / d.value();
      }
      pos_ = save;
    }
    return val;
  }

  // ---- formulas -------------------------------------------------------

  Result<FormulaPtr> formula() { return or_level(); }

  Result<FormulaPtr> quant() {
    // Caller verified the lookahead. 'E'/'A' then identifier then '.'.
    skip_ws();
    char q = text_[pos_++];
    skip_ws();
    if (!at_ident()) return err("expected variable after quantifier");
    std::string name = ident();
    if (!eat('.')) return err("expected '.' after quantified variable");
    auto body = unary_or_quant_scope();
    if (!body.is_ok()) return body;
    std::size_t v = vars_->index_of(name);
    return q == 'E' ? Formula::exists(v, body.value())
                    : Formula::forall(v, body.value());
  }

  // The body of a quantifier extends as far right as possible.
  Result<FormulaPtr> unary_or_quant_scope() { return or_level(); }

  Result<FormulaPtr> or_level() {
    auto lhs = and_level();
    if (!lhs.is_ok()) return lhs;
    std::vector<FormulaPtr> parts{lhs.value()};
    while (eat('|')) {
      auto rhs = and_level();
      if (!rhs.is_ok()) return rhs;
      parts.push_back(rhs.value());
    }
    return Formula::f_or(std::move(parts));
  }

  Result<FormulaPtr> and_level() {
    auto lhs = unary();
    if (!lhs.is_ok()) return lhs;
    std::vector<FormulaPtr> parts{lhs.value()};
    while (eat('&')) {
      auto rhs = unary();
      if (!rhs.is_ok()) return rhs;
      parts.push_back(rhs.value());
    }
    return Formula::f_and(std::move(parts));
  }

  bool at_quantifier() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c != 'E' && c != 'A') return false;
    // Must be a bare 'E'/'A' token followed by an identifier.
    std::size_t next = pos_ + 1;
    if (next < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[next])) ||
         text_[next] == '_')) {
      return false;  // it's an identifier like "Edge"
    }
    // Disambiguate predicates named "E"/"A": a quantifier is followed by
    // a bound-variable identifier, a predicate by '('.
    while (next < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[next]))) {
      ++next;
    }
    if (next < text_.size() && text_[next] == '(') return false;
    return true;
  }

  // Depth guard wrapping both recursion-carrying productions (every
  // nesting construct passes through unary() or factor()).
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    int* depth_;
  };

  Result<FormulaPtr> unary() {
    DepthGuard guard(&depth_);
    if (depth_ > kMaxParseDepth) return err("formula nesting too deep");
    skip_ws();
    if (eat('!')) {
      auto sub = unary();
      if (!sub.is_ok()) return sub;
      return Formula::f_not(sub.value());
    }
    if (at_quantifier()) return quant();
    if (eat_str("true")) return Formula::make_true();
    if (eat_str("false")) return Formula::make_false();

    // '(' could open a parenthesized formula or a parenthesized expr that
    // begins an atom. Try formula first, backtracking on failure.
    if (peek() == '(') {
      std::size_t save = pos_;
      ++pos_;  // consume '('
      auto inner = formula();
      if (inner.is_ok() && eat(')')) {
        // If a relational operator follows, this was actually an expression
        // in parentheses (e.g. "(x + 1) < y"): backtrack to atom parsing.
        char c = peek();
        if (c != '<' && c != '>' && c != '=' && c != '!') {
          return inner;
        }
      }
      pos_ = save;
      return atom();
    }

    // Predicate: Uppercase identifier followed by '('.
    if (at_ident()) {
      std::size_t save = pos_;
      std::string name = ident();
      if (!name.empty() && std::isupper(static_cast<unsigned char>(name[0])) &&
          peek() == '(') {
        ++pos_;  // consume '('
        std::vector<Polynomial> args;
        if (!eat(')')) {
          for (;;) {
            auto a = expr();
            if (!a.is_ok()) return a.status();
            args.push_back(a.value());
            if (eat(')')) break;
            if (!eat(',')) return err("expected ',' or ')' in predicate args");
          }
        }
        return Formula::predicate(name, std::move(args));
      }
      pos_ = save;
    }
    return atom();
  }

  Result<FormulaPtr> atom() {
    auto lhs = expr();
    if (!lhs.is_ok()) return lhs.status();
    skip_ws();
    RelOp op;
    if (eat_str("<=")) {
      op = RelOp::kLe;
    } else if (eat_str(">=")) {
      op = RelOp::kGe;
    } else if (eat_str("!=")) {
      op = RelOp::kNe;
    } else if (eat('<')) {
      op = RelOp::kLt;
    } else if (eat('>')) {
      op = RelOp::kGt;
    } else if (eat('=')) {
      op = RelOp::kEq;
    } else {
      return err("expected relational operator");
    }
    auto rhs = expr();
    if (!rhs.is_ok()) return rhs.status();
    return Formula::atom(lhs.value() - rhs.value(), op);
  }

  // ---- polynomial expressions ----------------------------------------

  Result<Polynomial> expr() {
    auto lhs = term();
    if (!lhs.is_ok()) return lhs;
    Polynomial out = lhs.value();
    for (;;) {
      if (eat('+')) {
        auto rhs = term();
        if (!rhs.is_ok()) return rhs;
        out += rhs.value();
      } else if (eat('-')) {
        auto rhs = term();
        if (!rhs.is_ok()) return rhs;
        out -= rhs.value();
      } else {
        return out;
      }
    }
  }

  Result<Polynomial> term() {
    auto lhs = factor();
    if (!lhs.is_ok()) return lhs;
    Polynomial out = lhs.value();
    while (eat('*')) {
      auto rhs = factor();
      if (!rhs.is_ok()) return rhs;
      out *= rhs.value();
    }
    return out;
  }

  Result<Polynomial> factor() {
    DepthGuard guard(&depth_);
    if (depth_ > kMaxParseDepth) return err("expression nesting too deep");
    skip_ws();
    if (eat('-')) {
      auto f = factor();
      if (!f.is_ok()) return f;
      return -f.value();
    }
    auto p = primary();
    if (!p.is_ok()) return p;
    Polynomial out = p.value();
    if (eat('^')) {
      skip_ws();
      std::string digits;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        digits.push_back(text_[pos_++]);
      }
      if (digits.empty()) return err("expected exponent");
      // Parse by hand: std::stoul throws on overflow, and exponents
      // beyond kMaxExponent are rejected before Polynomial::pow can
      // blow up time or memory.
      unsigned long e = 0;
      for (char d : digits) {
        e = e * 10 + static_cast<unsigned long>(d - '0');
        if (e > kMaxExponent) {
          return err("exponent exceeds " + std::to_string(kMaxExponent));
        }
      }
      out = out.pow(static_cast<unsigned>(e));
    }
    return out;
  }

  Result<Polynomial> primary() {
    skip_ws();
    if (pos_ >= text_.size()) return err("unexpected end of input");
    char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      auto n = number();
      if (!n.is_ok()) return n.status();
      return Polynomial::constant(n.value());
    }
    if (c == '(') {
      ++pos_;
      auto e = expr();
      if (!e.is_ok()) return e;
      if (!eat(')')) return err("expected ')'");
      return e;
    }
    if (at_ident()) {
      std::string name = ident();
      return Polynomial::variable(vars_->index_of(name));
    }
    return err(std::string("unexpected character '") + c + "'");
  }

  const std::string& text_;
  VarTable* vars_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<FormulaPtr> parse_formula(const std::string& text, VarTable* vars) {
  return Parser(text, vars).parse();
}

Result<FormulaPtr> parse_formula(const std::string& text) {
  VarTable vars;
  return parse_formula(text, &vars);
}

Result<Polynomial> parse_polynomial(const std::string& text, VarTable* vars) {
  return Parser(text, vars).parse_poly();
}

}  // namespace cqa
