// §5 specification-language front-end.
//
// The paper expresses programs in a small language — a single k-ary
// recursive method
//
//     f(p1,…,pk) ≡ if eb then sb else si
//
// optionally enclosed by a data-parallel loop (`foreach (d : data) f(d,…)`).
// This module provides that language concretely: a tokenizer, a
// recursive-descent parser, and an *interpreted* TaskProgram whose tasks
// carry the parameter tuple — so a program written as text runs through
// exactly the same task-block schedulers as the hand-written kernels
// (the §5.3 transformation: the foreach iterations become the root block,
// spawns become child emissions).
//
// Grammar (integer-valued, k ≤ 4 parameters):
//
//   program  := [foreach] method
//   foreach  := 'foreach' ident 'in' const-expr '..' const-expr ':'
//               ident '(' expr (',' expr)* ')'
//   method   := 'def' ident '(' ident (',' ident)* ')'
//               'base' expr 'reduce' expr
//               ('spawn' ['if' expr ':'] ident '(' expr (',' expr)* ')')*
//   expr     := or-expr with || && ! == != < <= > >= + - * / % unary- ( )
//               integer literals and parameter names
//
// The base expression is the paper's eb (truthy ⇒ base case); `reduce e`
// is sb (adds e to a 64-bit sum — reductions at base cases, §2.1); each
// spawn is one term of si, with an optional guard.  The optional foreach
// header is §5.2's data-parallel enclosing loop (`foreach (d : data) f(d,
// p1,…,pk)`): the loop variable ranges over [lo, hi), the call arguments
// are expressions over it, and each iteration contributes one root task —
// realized exactly as §5.3 prescribes, by strip-mining the iteration space
// into the scheduler's initial task blocks.
//
// Hostile input fails with ParseError, never with undefined behaviour: an
// integer literal above INT64_MAX is rejected, and so is an expression
// deeper than kMaxExprDepth — in the parser's recursion (parentheses,
// prefix operators) or in the AST it builds (a long `a + b + c + …` chain).
// Every later pass (constant folding, bytecode emission, the AST walk, the
// destructor) recurses over that depth.
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/program.hpp"
#include "simd/soa.hpp"
#include "spec/arith.hpp"

namespace tb::spec {

// ---- expression AST ------------------------------------------------------------

enum class Op {
  Const, Param,                       // leaves
  Add, Sub, Mul, Div, Mod, Neg,       // arithmetic
  Eq, Ne, Lt, Le, Gt, Ge,             // comparisons (0/1 valued)
  And, Or, Not,                       // logic (0/1 valued)
};

struct Expr {
  Op op = Op::Const;
  int height = 1;          // nodes on the longest path down; set by the parser
  std::int64_t value = 0;  // Const: literal; Param: parameter index
  std::unique_ptr<Expr> lhs, rhs;
};

// The deepest expression the parser accepts, far above the 64-slot operand
// stack a compiled expression may use (CompiledSpecProgram::kMaxStack).
inline constexpr int kMaxExprDepth = 512;

// Arithmetic follows arith.hpp: wrap-around overflow, total division (the
// semantics every execution tier — AST walk, constant folder, interpreter,
// JIT, block VM — implements identically).
inline std::int64_t eval(const Expr& e, std::span<const std::int64_t> params) {
  switch (e.op) {
    case Op::Const: return e.value;
    case Op::Param: return params[static_cast<std::size_t>(e.value)];
    case Op::Neg: return wrap_neg(eval(*e.lhs, params));
    case Op::Not: return eval(*e.lhs, params) == 0 ? 1 : 0;
    default: break;
  }
  const std::int64_t a = eval(*e.lhs, params);
  // Short-circuit logic.
  if (e.op == Op::And) return (a != 0 && eval(*e.rhs, params) != 0) ? 1 : 0;
  if (e.op == Op::Or) return (a != 0 || eval(*e.rhs, params) != 0) ? 1 : 0;
  const std::int64_t b = eval(*e.rhs, params);
  switch (e.op) {
    case Op::Add: return wrap_add(a, b);
    case Op::Sub: return wrap_sub(a, b);
    case Op::Mul: return wrap_mul(a, b);
    case Op::Div: return div_total(a, b);
    case Op::Mod: return mod_total(a, b);
    case Op::Eq: return a == b;
    case Op::Ne: return a != b;
    case Op::Lt: return a < b;
    case Op::Le: return a <= b;
    case Op::Gt: return a > b;
    case Op::Ge: return a >= b;
    default: throw std::logic_error("bad expr");
  }
}

// ---- parsed method ---------------------------------------------------------------

struct SpawnClause {
  std::unique_ptr<Expr> guard;              // may be null (unconditional)
  std::vector<std::unique_ptr<Expr>> args;  // one per parameter
};

struct Method {
  std::string name;
  std::vector<std::string> params;
  std::unique_ptr<Expr> base;    // eb
  std::unique_ptr<Expr> reduce;  // sb's reduced value
  std::vector<SpawnClause> spawns;
};

// §5.2 data-parallel enclosing loop: `foreach d in lo..hi : f(args(d)…)`.
// Bounds are compile-time constants; call arguments are expressions over
// the single loop variable.
struct ForeachClause {
  std::string var;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<std::unique_ptr<Expr>> args;  // one per method parameter, over {var}
};

// One parsed source unit: a method, optionally enclosed by a foreach loop.
struct SpecUnit {
  Method method;
  std::unique_ptr<ForeachClause> loop;  // null when the unit is a bare method

  bool has_foreach() const { return loop != nullptr; }
};

// ---- parser ------------------------------------------------------------------------

class ParseError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class Parser {
public:
  explicit Parser(std::string_view src) : src_(src) {}

  // program := [foreach] method
  SpecUnit parse_unit() {
    SpecUnit unit;
    std::string callee;
    if (try_word("foreach")) {
      auto loop = std::make_unique<ForeachClause>();
      loop->var = ident();
      expect_word("in");
      // Bounds are constant expressions: parse with no parameters in scope.
      static const std::vector<std::string> kNoParams;
      params_ = &kNoParams;
      const auto lo = expr();
      if (!try_token("..")) throw ParseError("expected '..' in foreach range");
      const auto hi = expr();
      loop->lo = eval(*lo, {});
      loop->hi = eval(*hi, {});
      expect(':');
      callee = ident();
      expect('(');
      const std::vector<std::string> loop_params{loop->var};
      params_ = &loop_params;
      loop->args.push_back(expr());
      while (peek() == ',') {
        get();
        loop->args.push_back(expr());
      }
      expect(')');
      params_ = nullptr;
      unit.loop = std::move(loop);
    }
    unit.method = parse_method();
    if (unit.loop) {
      if (callee != unit.method.name) {
        throw ParseError("foreach must call the method it encloses");
      }
      if (unit.loop->args.size() != unit.method.params.size()) {
        throw ParseError("foreach call arity mismatch");
      }
    }
    return unit;
  }

  Method parse_method() {
    expect_word("def");
    Method m;
    m.name = ident();
    expect('(');
    m.params.push_back(ident());
    while (peek() == ',') {
      get();
      m.params.push_back(ident());
    }
    expect(')');
    if (m.params.size() > 4) throw ParseError("at most 4 parameters supported");
    params_ = &m.params;
    expect_word("base");
    m.base = expr();
    expect_word("reduce");
    m.reduce = expr();
    while (try_word("spawn")) {
      SpawnClause s;
      if (try_word("if")) {
        s.guard = expr();
        expect(':');
      }
      const std::string callee = ident();
      if (callee != m.name) throw ParseError("spawn must call the recursive method");
      expect('(');
      s.args.push_back(expr());
      while (peek() == ',') {
        get();
        s.args.push_back(expr());
      }
      expect(')');
      if (s.args.size() != m.params.size()) throw ParseError("spawn arity mismatch");
      m.spawns.push_back(std::move(s));
    }
    skip_ws();
    if (pos_ != src_.size()) throw ParseError("trailing input");
    if (m.spawns.empty()) throw ParseError("method never spawns");
    return m;
  }

private:
  // expr := and ('||' and)*
  std::unique_ptr<Expr> expr() { return binary_chain({"||"}, [&] { return and_(); }); }
  std::unique_ptr<Expr> and_() { return binary_chain({"&&"}, [&] { return cmp(); }); }
  std::unique_ptr<Expr> cmp() {
    auto lhs = sum();
    skip_ws();
    static constexpr std::pair<const char*, Op> kCmp[] = {
        {"==", Op::Eq}, {"!=", Op::Ne}, {"<=", Op::Le},
        {">=", Op::Ge}, {"<", Op::Lt},  {">", Op::Gt}};
    for (const auto& [tok, op] : kCmp) {
      if (try_token(tok)) return make(op, std::move(lhs), sum());
    }
    return lhs;
  }
  std::unique_ptr<Expr> sum() {
    auto lhs = term();
    while (true) {
      skip_ws();
      if (try_token("+")) {
        lhs = make(Op::Add, std::move(lhs), term());
      } else if (peek() == '-' ) {
        get();
        lhs = make(Op::Sub, std::move(lhs), term());
      } else {
        return lhs;
      }
    }
  }
  std::unique_ptr<Expr> term() {
    auto lhs = unary();
    while (true) {
      skip_ws();
      if (try_token("*")) {
        lhs = make(Op::Mul, std::move(lhs), unary());
      } else if (try_token("/")) {
        lhs = make(Op::Div, std::move(lhs), unary());
      } else if (try_token("%")) {
        lhs = make(Op::Mod, std::move(lhs), unary());
      } else {
        return lhs;
      }
    }
  }
  // Every nested expression (a parenthesis, a prefix operator) recurses
  // through here, so this is where the recursion is bounded.
  std::unique_ptr<Expr> unary() {
    if (++nesting_ > kMaxExprDepth) throw ParseError("expression nested too deeply");
    skip_ws();
    std::unique_ptr<Expr> e;
    if (try_token("!")) {
      e = make(Op::Not, unary());
    } else if (peek() == '-') {
      get();
      e = make(Op::Neg, unary());
    } else {
      e = atom();
    }
    --nesting_;
    return e;
  }
  std::unique_ptr<Expr> atom() {
    skip_ws();
    if (peek() == '(') {
      get();
      auto node = expr();
      expect(')');
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      auto node = std::make_unique<Expr>();
      node->op = Op::Const;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        const int digit = get() - '0';
        if (node->value > (kMax - digit) / 10) throw ParseError("integer literal out of range");
        node->value = node->value * 10 + digit;
      }
      return node;
    }
    const std::string name = ident();
    for (std::size_t i = 0; i < params_->size(); ++i) {
      if ((*params_)[i] == name) {
        auto node = std::make_unique<Expr>();
        node->op = Op::Param;
        node->value = static_cast<std::int64_t>(i);
        return node;
      }
    }
    throw ParseError("unknown identifier: " + name);
  }

  template <class Sub>
  std::unique_ptr<Expr> binary_chain(std::initializer_list<const char*> toks, Sub&& sub) {
    auto lhs = sub();
    while (true) {
      skip_ws();
      bool matched = false;
      for (const char* tok : toks) {
        if (try_token(tok)) {
          lhs = make(tok[0] == '|' ? Op::Or : Op::And, std::move(lhs), sub());
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  // An operator node over its operands (`r` null for a prefix operator);
  // bounds the AST's height, which chains grow without recursing.
  static std::unique_ptr<Expr> make(Op op, std::unique_ptr<Expr> l,
                                    std::unique_ptr<Expr> r = nullptr) {
    auto node = std::make_unique<Expr>();
    node->op = op;
    node->height = 1 + std::max(l->height, r ? r->height : 0);
    if (node->height > kMaxExprDepth) throw ParseError("expression nested too deeply");
    node->lhs = std::move(l);
    node->rhs = std::move(r);
    return node;
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (std::isspace(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '#')) {
      if (src_[pos_] == '#') {  // comment to end of line
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        ++pos_;
      }
    }
  }
  char peek() {
    skip_ws();
    return pos_ < src_.size() ? src_[pos_] : '\0';
  }
  char get() { return pos_ < src_.size() ? src_[pos_++] : '\0'; }
  void expect(char c) {
    if (peek() != c) throw ParseError(std::string("expected '") + c + "'");
    get();
  }
  bool try_token(std::string_view tok) {
    skip_ws();
    if (src_.substr(pos_, tok.size()) != tok) return false;
    // Don't let "<" match the prefix of "<=".
    if ((tok == "<" || tok == ">") && pos_ + 1 < src_.size() && src_[pos_ + 1] == '=') {
      return false;
    }
    pos_ += tok.size();
    return true;
  }
  std::string ident() {
    skip_ws();
    std::string out;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_')) {
      out.push_back(src_[pos_++]);
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
      throw ParseError("expected identifier");
    }
    return out;
  }
  bool try_word(std::string_view word) {
    skip_ws();
    if (src_.substr(pos_, word.size()) != word) return false;
    const std::size_t after = pos_ + word.size();
    if (after < src_.size() &&
        (std::isalnum(static_cast<unsigned char>(src_[after])) || src_[after] == '_')) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  void expect_word(std::string_view word) {
    if (!try_word(word)) throw ParseError("expected '" + std::string(word) + "'");
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  // unary() calls in progress
  const std::vector<std::string>* params_ = nullptr;
};

// ---- interpreted task program --------------------------------------------------------
//
// Tasks carry the parameter tuple (padded to 4 lanes); the program
// satisfies the same TaskProgram/SoaProgram concepts as the hand-written
// kernels, so every scheduler, layer, and statistic works unchanged.

class SpecProgram {
public:
  struct Task {
    std::array<std::int64_t, 4> p;
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 8;

  explicit SpecProgram(Method m) : method_(std::move(m)) {
    if (method_.spawns.size() > static_cast<std::size_t>(max_children)) {
      throw ParseError("too many spawns (max 8)");
    }
  }

  static SpecProgram parse(std::string_view source) {
    return SpecProgram(Parser(source).parse_method());
  }

  const Method& method() const { return method_; }
  std::size_t arity() const { return method_.params.size(); }

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return eval(*method_.base, t.p) != 0; }
  void leaf(const Task& t, Result& r) const {
    r += static_cast<Result>(eval(*method_.reduce, t.p));
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    int slot = 0;
    for (const auto& s : method_.spawns) {
      if (s.guard == nullptr || eval(*s.guard, t.p) != 0) {
        Task child{};
        for (std::size_t i = 0; i < s.args.size(); ++i) {
          child.p[i] = eval(*s.args[i], t.p);
        }
        emit(slot, child);
      }
      ++slot;
    }
  }

  using Block = simd::SoaBlock<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [a, c, d, e] = b.row(i);
    return Task{{a, c, d, e}};
  }
  static void append_task(Block& b, const Task& t) {
    b.push_back(t.p[0], t.p[1], t.p[2], t.p[3]);
  }

  Task make_root(std::initializer_list<std::int64_t> args) const {
    Task t{};
    std::size_t i = 0;
    for (const auto a : args) t.p[i++] = a;
    return t;
  }

  // §5.3: a data-parallel outer loop contributes one root task per
  // iteration, d in [lo, hi), bound to the first parameter; the remaining
  // parameters are shared.
  std::vector<Task> foreach_roots(std::int64_t lo, std::int64_t hi,
                                  std::initializer_list<std::int64_t> rest = {}) const {
    std::vector<Task> roots;
    roots.reserve(static_cast<std::size_t>(hi - lo));
    for (std::int64_t d = lo; d < hi; ++d) {
      Task t{};
      t.p[0] = d;
      std::size_t i = 1;
      for (const auto a : rest) t.p[i++] = a;
      roots.push_back(t);
    }
    return roots;
  }

private:
  Method method_;
};

// Materialize the root tasks of a foreach clause (§5.3: one root per loop
// iteration, argument expressions evaluated over the loop variable).  The
// task layout is shared by SpecProgram and CompiledSpecProgram.
inline std::vector<SpecProgram::Task> clause_roots(const ForeachClause& c) {
  std::vector<SpecProgram::Task> roots;
  if (c.hi > c.lo) roots.reserve(static_cast<std::size_t>(c.hi - c.lo));
  for (std::int64_t d = c.lo; d < c.hi; ++d) {
    SpecProgram::Task t{};
    const std::int64_t env[1] = {d};
    for (std::size_t i = 0; i < c.args.size(); ++i) {
      t.p[i] = eval(*c.args[i], env);
    }
    roots.push_back(t);
  }
  return roots;
}

// Parse a full source unit and return the program together with its root
// tasks: the foreach iterations when present, else the single root built
// from `fallback_root`.
struct LoadedSpec {
  SpecProgram program;
  std::vector<SpecProgram::Task> roots;
  bool had_foreach = false;
};

inline LoadedSpec load_spec(std::string_view source,
                            std::initializer_list<std::int64_t> fallback_root = {}) {
  SpecUnit unit = Parser(source).parse_unit();
  const bool has_loop = unit.has_foreach();
  std::vector<SpecProgram::Task> roots;
  if (has_loop) roots = clause_roots(*unit.loop);
  SpecProgram program(std::move(unit.method));
  if (!has_loop) roots.push_back(program.make_root(fallback_root));
  return {std::move(program), std::move(roots), has_loop};
}

// Reference interpreter (plain recursion) — the Ts oracle for spec programs.
inline std::uint64_t interpret_sequential(const SpecProgram& prog,
                                          const SpecProgram::Task& t) {
  if (prog.is_base(t)) {
    std::uint64_t r = 0;
    prog.leaf(t, r);
    return r;
  }
  std::uint64_t total = 0;
  prog.expand(t, [&](int, const SpecProgram::Task& c) {
    total += interpret_sequential(prog, c);
  });
  return total;
}

}  // namespace tb::spec
