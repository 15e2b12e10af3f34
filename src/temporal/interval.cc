#include "src/temporal/interval.h"

#include <cassert>

namespace dmtl {

namespace {

// Sum of bound positions used by Minkowski dilation: infinite dominates,
// openness is contagious.
Bound AddBounds(const Bound& a, const Bound& b) {
  if (a.infinite || b.infinite) return Bound::Infinite();
  return {a.value + b.value, a.open || b.open, false};
}

Bound SubBounds(const Bound& a, const Bound& b) {
  if (a.infinite || b.infinite) return Bound::Infinite();
  return {a.value - b.value, a.open || b.open, false};
}

}  // namespace

Interval Interval::Point(const Rational& t) {
  return Interval(Bound::Closed(t), Bound::Closed(t));
}

Interval Interval::Closed(const Rational& lo, const Rational& hi) {
  assert(lo <= hi);
  return Interval(Bound::Closed(lo), Bound::Closed(hi));
}

Interval Interval::Open(const Rational& lo, const Rational& hi) {
  assert(lo < hi);
  return Interval(Bound::Open(lo), Bound::Open(hi));
}

Interval Interval::ClosedOpen(const Rational& lo, const Rational& hi) {
  assert(lo < hi);
  return Interval(Bound::Closed(lo), Bound::Open(hi));
}

Interval Interval::OpenClosed(const Rational& lo, const Rational& hi) {
  assert(lo < hi);
  return Interval(Bound::Open(lo), Bound::Closed(hi));
}

Interval Interval::All() {
  return Interval(Bound::Infinite(), Bound::Infinite());
}

Interval Interval::AtLeast(const Rational& t) {
  return Interval(Bound::Closed(t), Bound::Infinite());
}

Interval Interval::AtMost(const Rational& t) {
  return Interval(Bound::Infinite(), Bound::Closed(t));
}

std::optional<Rational> Interval::Length() const {
  if (lo_.infinite || hi_.infinite) return std::nullopt;
  return hi_.value - lo_.value;
}

Interval Interval::DiamondMinus(const Interval& rho) const {
  // t in I (+) rho.
  Bound lo = lo_.infinite ? Bound::Infinite() : AddBounds(lo_, rho.lo());
  Bound hi = hi_.infinite ? Bound::Infinite() : AddBounds(hi_, rho.hi());
  auto out = Make(lo, hi);
  assert(out.has_value());
  return *out;
}

std::optional<Interval> Interval::BoxMinus(const Interval& rho) const {
  // t such that <t - rho.hi, t - rho.lo> is contained in I.
  Bound lo;
  if (rho.hi().infinite) {
    // The window reaches back to -inf: only satisfiable on facts that hold
    // on an infinite past.
    if (!lo_.infinite) return std::nullopt;
    lo = Bound::Infinite();
  } else if (lo_.infinite) {
    lo = Bound::Infinite();
  } else {
    // Result closed when rho's upper endpoint is excluded from the window
    // (the window is open there, so the fact's own endpoint suffices).
    bool open = rho.hi().open ? false : lo_.open;
    lo = Bound{lo_.value + rho.hi().value, open, false};
  }
  Bound hi;
  if (hi_.infinite) {
    hi = Bound::Infinite();
  } else {
    bool open = rho.lo().open ? false : hi_.open;
    hi = Bound{hi_.value + rho.lo().value, open, false};
  }
  return Make(lo, hi);
}

Interval Interval::DiamondPlus(const Interval& rho) const {
  // t in <lo - rho.hi, hi - rho.lo>.
  Bound lo = lo_.infinite ? Bound::Infinite() : SubBounds(lo_, rho.hi());
  if (!lo_.infinite && rho.hi().infinite) lo = Bound::Infinite();
  Bound hi = hi_.infinite ? Bound::Infinite() : SubBounds(hi_, rho.lo());
  auto out = Make(lo, hi);
  assert(out.has_value());
  return *out;
}

std::optional<Interval> Interval::BoxPlus(const Interval& rho) const {
  // t such that <t + rho.lo, t + rho.hi> is contained in I.
  Bound lo;
  if (lo_.infinite) {
    lo = Bound::Infinite();
  } else {
    bool open = rho.lo().open ? false : lo_.open;
    lo = Bound{lo_.value - rho.lo().value, open, false};
  }
  Bound hi;
  if (rho.hi().infinite) {
    if (!hi_.infinite) return std::nullopt;
    hi = Bound::Infinite();
  } else if (hi_.infinite) {
    hi = Bound::Infinite();
  } else {
    bool open = rho.hi().open ? false : hi_.open;
    hi = Bound{hi_.value - rho.hi().value, open, false};
  }
  return Make(lo, hi);
}

std::string Interval::ToString() const {
  std::string out;
  out += lo_.open ? '(' : '[';
  out += lo_.infinite ? "-inf" : lo_.value.ToString();
  out += ',';
  out += hi_.infinite ? "+inf" : hi_.value.ToString();
  out += hi_.open ? ')' : ']';
  return out;
}

bool operator==(const Interval& a, const Interval& b) {
  auto eq = [](const Bound& x, const Bound& y) {
    if (x.infinite != y.infinite) return false;
    if (x.infinite) return true;
    return x.value == y.value && x.open == y.open;
  };
  return eq(a.lo_, b.lo_) && eq(a.hi_, b.hi_);
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << iv.ToString();
}

}  // namespace dmtl
