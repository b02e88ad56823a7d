#include "qpwm/tree/mso.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

constexpr int kReject = -1;

// Child-state domain marker for the atom builder.
constexpr int kAbsentState = -2;

// The base labels an atom tells apart: label b falls in class of[b], one of
// `count` classes numbered by first appearance.
struct BaseClasses {
  std::vector<uint32_t> of;
  uint32_t count;
};

// Structural atoms read no label: one class.
BaseClasses Uniform(uint32_t base_count) { return {std::vector<uint32_t>(base_count, 0), 1}; }

// A label atom tells its label from everything else.
BaseClasses LabelClasses(uint32_t base_count, uint32_t label) {
  BaseClasses out{std::vector<uint32_t>(base_count, label == 0 ? 1 : 0), 1};
  out.of[label] = label == 0 ? 0 : 1;
  if (base_count > 1) out.count = 2;
  return out;
}

// Builds a small total-on-purpose automaton by enumerating every
// (left, right, base class, bits) combination and asking `step` for the
// target (kReject = implicit sink). Symbol base + |Sigma| * bits falls in
// class of[base] + count * bits, which keeps classes numbered by first
// appearance.
Dta BuildAtom(const BaseClasses& base, uint32_t num_tracks, uint32_t num_states,
              const std::vector<State>& accepting,
              const std::function<int(int, int, uint32_t, uint32_t)>& step) {
  std::vector<uint32_t> symbol_class;
  symbol_class.reserve(base.of.size() << num_tracks);
  for (uint32_t bits = 0; bits < (1u << num_tracks); ++bits) {
    for (uint32_t c : base.of) symbol_class.push_back(c + base.count * bits);
  }
  Dta out(num_states, std::move(symbol_class));
  std::vector<int> child_domain{kAbsentState};
  for (uint32_t q = 0; q < num_states; ++q) child_domain.push_back(static_cast<int>(q));

  for (int l : child_domain) {
    for (int r : child_domain) {
      for (uint32_t c = 0; c < base.count; ++c) {
        for (uint32_t bits = 0; bits < (1u << num_tracks); ++bits) {
          int to = step(l, r, c, bits);
          if (to == kReject) continue;
          State ls = l == kAbsentState ? kAbsentChild : static_cast<State>(l);
          State rs = r == kAbsentState ? kAbsentChild : static_cast<State>(r);
          out.AddTransition(ls, rs, c + base.count * bits, static_cast<State>(to));
        }
      }
    }
  }
  for (State q : accepting) out.SetAccepting(q, true);
  return out;
}

int StateOr0(int child) { return child == kAbsentState ? 0 : child; }
bool IsNoneOrAbsent(int child) { return child == kAbsentState || child == 0; }

// --- Atom automata. All are exact on well-sorted inputs (one pebble per
// first-order track); on malformed inputs they may answer arbitrarily, which
// the singleton conjunction at quantifier boundaries makes unobservable.

Dta SingletonAtom(uint32_t base_count) {
  return BuildAtom(Uniform(base_count), 1, 2, {1}, [](int l, int r, uint32_t, uint32_t bits) {
    int count = StateOr0(l) + StateOr0(r) + static_cast<int>(bits & 1);
    return count <= 1 ? count : kReject;
  });
}

Dta MemberAtom(uint32_t base_count, int x_bit, int set_bit) {
  return BuildAtom(Uniform(base_count), 2, 2, {1},
                   [x_bit, set_bit](int l, int r, uint32_t, uint32_t bits) {
                     bool bx = (bits >> x_bit) & 1;
                     bool bX = (bits >> set_bit) & 1;
                     bool done = l == 1 || r == 1;
                     if (bx && !bX) return kReject;
                     return (done || bx) ? 1 : 0;
                   });
}

Dta EqAtom(uint32_t base_count, int x_bit, int y_bit) {
  return BuildAtom(Uniform(base_count), 2, 2, {1},
                   [x_bit, y_bit](int l, int r, uint32_t, uint32_t bits) {
                     bool bx = (bits >> x_bit) & 1;
                     bool by = (bits >> y_bit) & 1;
                     bool done = l == 1 || r == 1;
                     if (bx != by) return kReject;
                     if (bx) return done ? kReject : 1;
                     return done ? 1 : 0;
                   });
}

// y is the left (side == 0) or right (side == 1) child of x.
Dta ChildAtom(uint32_t base_count, int x_bit, int y_bit, int side) {
  return BuildAtom(
      Uniform(base_count), 2, 3, {2},
      [x_bit, y_bit, side](int l, int r, uint32_t, uint32_t bits) {
        bool bx = (bits >> x_bit) & 1;
        bool by = (bits >> y_bit) & 1;
        if (bx && by) return kReject;  // a node is never its own child
        if (by) {
          return (IsNoneOrAbsent(l) && IsNoneOrAbsent(r)) ? 1 : kReject;
        }
        if (bx) {
          int child = side == 0 ? l : r;
          int other = side == 0 ? r : l;
          return (child == 1 && IsNoneOrAbsent(other)) ? 2 : kReject;
        }
        if (l == 1 || r == 1) return kReject;  // y's parent was not x
        int twos = (l == 2 ? 1 : 0) + (r == 2 ? 1 : 0);
        if (twos == 0) return 0;
        if (twos == 1) return 2;
        return kReject;
      });
}

// x <= y in tree order (x is an ancestor of y, or x == y).
Dta LeqAtom(uint32_t base_count, int x_bit, int y_bit) {
  return BuildAtom(
      Uniform(base_count), 2, 3, {2},
      [x_bit, y_bit](int l, int r, uint32_t, uint32_t bits) {
        bool bx = (bits >> x_bit) & 1;
        bool by = (bits >> y_bit) & 1;
        bool l_clear = IsNoneOrAbsent(l);
        bool r_clear = IsNoneOrAbsent(r);
        if (bx && by) return (l_clear && r_clear) ? 2 : kReject;
        if (by) return (l_clear && r_clear) ? 1 : kReject;
        if (bx) {
          // y must sit strictly below, in exactly one child.
          if (l == 1 && r_clear) return 2;
          if (r == 1 && l_clear) return 2;
          return kReject;
        }
        int lm = StateOr0(l);
        int rm = StateOr0(r);
        if (lm == 0 && rm == 0) return 0;
        if (lm != 0 && rm != 0) return kReject;  // marks in both subtrees
        return lm + rm;  // propagate the single mark (1 or 2)
      });
}

Dta LabelAtom(uint32_t base_count, uint32_t label, int x_bit) {
  BaseClasses base = LabelClasses(base_count, label);
  const uint32_t label_class = base.of[label];
  return BuildAtom(base, 1, 2, {1},
                   [label_class, x_bit](int l, int r, uint32_t cls, uint32_t bits) {
                     bool bx = (bits >> x_bit) & 1;
                     bool done = l == 1 || r == 1;
                     if (bx) return cls == label_class ? 1 : kReject;
                     return done ? 1 : 0;
                   });
}

// CHILD(x, y): y is an *unranked* child of x under the first-child /
// next-sibling encoding, i.e. y lies on the S2-spine of x's left child.
// Equivalent to the MSO closure formula (exists z (S1(x,z) & S2*-chain)) but
// compiled directly: 3 states, no set quantifier, no determinization cost.
// States: 0 = nothing relevant below; 1 = y is on the right spine starting
// at this node; 2 = done (x seen with its left child in state 1).
Dta ChildUnrankedAtom(uint32_t base_count, int x_bit, int y_bit) {
  return BuildAtom(
      Uniform(base_count), 2, 3, {2},
      [x_bit, y_bit](int l, int r, uint32_t, uint32_t bits) {
        bool bx = (bits >> x_bit) & 1;
        bool by = (bits >> y_bit) & 1;
        int ml = StateOr0(l);
        int mr = StateOr0(r);
        if (bx && by) return kReject;  // a node is never its own child
        if (by) return (ml == 0 && mr == 0) ? 1 : kReject;
        if (bx) return (ml == 1 && mr == 0) ? 2 : kReject;
        if (ml == 0 && mr == 0) return 0;
        if (ml == 0 && mr == 1) return 1;  // spine continues upward
        if (ml == 1) return kReject;       // y's parent is not x
        if ((ml == 2 && mr == 0) || (ml == 0 && mr == 2)) return 2;
        return kReject;
      });
}

Dta RootAtom(uint32_t base_count, int x_bit) {
  return BuildAtom(Uniform(base_count), 1, 3, {1},
                   [x_bit](int l, int r, uint32_t, uint32_t bits) {
                     bool bx = (bits >> x_bit) & 1;
                     if (bx) {
                       return (IsNoneOrAbsent(l) && IsNoneOrAbsent(r)) ? 1 : kReject;
                     }
                     return (StateOr0(l) > 0 || StateOr0(r) > 0) ? 2 : 0;
                   });
}

Dta LeafAtom(uint32_t base_count, int x_bit) {
  return BuildAtom(Uniform(base_count), 1, 2, {1},
                   [x_bit](int l, int r, uint32_t, uint32_t bits) {
                     bool bx = (bits >> x_bit) & 1;
                     if (bx) {
                       return (l == kAbsentState && r == kAbsentState) ? 1 : kReject;
                     }
                     return (l == 1 || r == 1) ? 1 : 0;
                   });
}

bool MsoTraceEnabled() {
  static const bool enabled = std::getenv("QPWM_MSO_TRACE") != nullptr;
  return enabled;
}

void Trace(const char* op, const Formula& f, const TrackedDta& out) {
  if (!MsoTraceEnabled()) return;
  std::fprintf(stderr,
               "[mso] %-8s states=%-6u alphabet=%-6u classes=%-5u transitions=%-8zu %s\n",
               op, out.dta.num_states(), out.dta.alphabet_size(), out.dta.num_classes(),
               out.dta.num_transitions(), f.ToString().substr(0, 90).c_str());
}

// --- Track plumbing.

// Bit index of `var` in a sorted track list.
int TrackBit(const std::vector<std::string>& tracks, const std::string& var) {
  auto it = std::find(tracks.begin(), tracks.end(), var);
  QPWM_CHECK(it != tracks.end());
  return static_cast<int>(it - tracks.begin());
}

// Rejects pebbled alphabets Sigma x {0,1}^k beyond what an automaton
// holds; their size comes from the input document's distinct values.
Status CheckPebbledAlphabet(uint32_t base_count, size_t tracks) {
  if (tracks > 21 || (static_cast<uint64_t>(base_count) << tracks) > kMaxAlphabetSize) {
    return Status::InvalidArgument(StrCat("pebbled alphabet of ", base_count, " labels x 2^",
                                          tracks, " tracks exceeds the limit of ",
                                          kMaxAlphabetSize, " symbols"));
  }
  return Status::OK();
}

// Extends `a` to the superset `target` of its tracks, in target's track
// order, by cylindrification: each new symbol reads as the old symbol with
// the new tracks' bits dropped (and the old ones moved back to their bits).
Result<TrackedDta> Align(const TrackedDta& a, const std::vector<std::string>& target,
                         uint32_t base_count) {
  if (a.tracks == target) return a;
  QPWM_RETURN_NOT_OK(CheckPebbledAlphabet(base_count, target.size()));
  const uint32_t k_old = static_cast<uint32_t>(a.tracks.size());
  const uint32_t k_new = static_cast<uint32_t>(target.size());

  // old track bit -> new track bit.
  std::vector<int> pos(k_old);
  for (uint32_t i = 0; i < k_old; ++i) pos[i] = TrackBit(target, a.tracks[i]);

  std::vector<uint32_t> source(base_count << k_new);
  for (uint32_t sym = 0; sym < source.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;
    uint32_t old_bits = 0;
    for (uint32_t i = 0; i < k_old; ++i) {
      if ((bits >> pos[i]) & 1) old_bits |= 1u << i;
    }
    source[sym] = base + base_count * old_bits;
  }
  return TrackedDta{a.dta.RemapSymbols(source), target};
}

std::vector<std::string> UnionTracks(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

// Removes `var`'s track by projection (exists semantics) + determinization.
TrackedDta Project(const TrackedDta& a, const std::string& var, uint32_t base_count,
                   const Formula& f) {
  const uint32_t k = static_cast<uint32_t>(a.tracks.size());
  const int bit = TrackBit(a.tracks, var);

  std::vector<uint32_t> image(base_count << k);
  for (uint32_t sym = 0; sym < image.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;
    uint32_t low = bits & ((1u << bit) - 1);
    uint32_t high = (bits >> (bit + 1)) << bit;
    image[sym] = base + base_count * (low | high);
  }

  std::vector<std::string> tracks = a.tracks;
  tracks.erase(tracks.begin() + bit);
  TrackedDta out{a.dta.ToNta().Project(base_count << (k - 1), image).Determinize(),
                 std::move(tracks)};
  Trace("subset", f, out);
  out.dta = out.dta.Minimize();
  return out;
}

// Fresh-names every bound variable so shadowing cannot conflate tracks.
FormulaPtr AlphaRename(const Formula& f, std::map<std::string, std::string>& scope,
                       int& counter) {
  auto out = f.Clone();
  switch (out->kind) {
    case FormulaKind::kAtom:
    case FormulaKind::kEq:
      for (auto& v : out->vars) {
        auto it = scope.find(v);
        if (it != scope.end()) v = it->second;
      }
      break;
    case FormulaKind::kSetMember: {
      auto it = scope.find(out->vars[0]);
      if (it != scope.end()) out->vars[0] = it->second;
      it = scope.find(out->set_var);
      if (it != scope.end()) out->set_var = it->second;
      break;
    }
    case FormulaKind::kNot:
      out->left = AlphaRename(*f.left, scope, counter);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      out->left = AlphaRename(*f.left, scope, counter);
      out->right = AlphaRename(*f.right, scope, counter);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      std::string fresh = StrCat(out->quantified_var, "@", counter++);
      auto saved = scope.find(out->quantified_var);
      std::string old = saved != scope.end() ? saved->second : "";
      bool had = saved != scope.end();
      scope[out->quantified_var] = fresh;
      auto renamed_body = AlphaRename(*f.left, scope, counter);
      if (had) {
        scope[out->quantified_var] = old;
      } else {
        scope.erase(out->quantified_var);
      }
      out->quantified_var = fresh;
      out->left = std::move(renamed_body);
      break;
    }
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet: {
      std::string fresh = StrCat(out->set_var, "@", counter++);
      auto saved = scope.find(out->set_var);
      std::string old = saved != scope.end() ? saved->second : "";
      bool had = saved != scope.end();
      scope[out->set_var] = fresh;
      auto renamed_body = AlphaRename(*f.left, scope, counter);
      if (had) {
        scope[out->set_var] = old;
      } else {
        scope.erase(out->set_var);
      }
      out->set_var = fresh;
      out->left = std::move(renamed_body);
      break;
    }
  }
  return out;
}

class Compiler {
 public:
  explicit Compiler(const Alphabet& sigma)
      : sigma_(sigma), base_(static_cast<uint32_t>(sigma.size())) {}

  Result<TrackedDta> Compile(const Formula& f) {
    auto out = CompileInner(f);
    if (out.ok()) Trace("node", f, out.value());
    return out;
  }

  Result<TrackedDta> CompileInner(const Formula& f) {
    if (f.kind == FormulaKind::kAtom || f.kind == FormulaKind::kEq ||
        f.kind == FormulaKind::kSetMember) {
      const size_t tracks = f.vars.size() + (f.kind == FormulaKind::kSetMember ? 1 : 0);
      QPWM_RETURN_NOT_OK(CheckPebbledAlphabet(base_, tracks));
    }
    switch (f.kind) {
      case FormulaKind::kAtom:
        return CompileAtom(f);
      case FormulaKind::kEq: {
        if (f.vars[0] == f.vars[1]) return TrueAutomaton({f.vars[0]});
        std::vector<std::string> tracks{f.vars[0], f.vars[1]};
        std::sort(tracks.begin(), tracks.end());
        return TrackedDta{EqAtom(base_, TrackBit(tracks, f.vars[0]),
                                 TrackBit(tracks, f.vars[1])),
                          tracks};
      }
      case FormulaKind::kSetMember: {
        if (f.vars[0] == f.set_var) {
          return Status::InvalidArgument(
              "variable '" + f.vars[0] + "' used as both element and set");
        }
        std::vector<std::string> tracks{f.vars[0], f.set_var};
        std::sort(tracks.begin(), tracks.end());
        return TrackedDta{MemberAtom(base_, TrackBit(tracks, f.vars[0]),
                                     TrackBit(tracks, f.set_var)),
                          tracks};
      }
      case FormulaKind::kNot: {
        auto inner = Compile(*f.left);
        if (!inner.ok()) return inner;
        return TrackedDta{inner.value().dta.Complement().Minimize(),
                          inner.value().tracks};
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        auto a = Compile(*f.left);
        if (!a.ok()) return a;
        auto b = Compile(*f.right);
        if (!b.ok()) return b;
        auto tracks = UnionTracks(a.value().tracks, b.value().tracks);
        auto lhs = Align(a.value(), tracks, base_);
        if (!lhs.ok()) return lhs;
        auto rhs = Align(b.value(), tracks, base_);
        if (!rhs.ok()) return rhs;
        Dta product = Dta::Product(lhs.value().dta, rhs.value().dta,
                                   f.kind == FormulaKind::kAnd)
                          .Minimize();
        return TrackedDta{std::move(product), tracks};
      }
      case FormulaKind::kExists:
        return CompileExists(f, /*first_order=*/true);
      case FormulaKind::kForall: {
        auto negated = MakeNot(MakeExists(f.quantified_var, MakeNot(f.left->Clone())));
        return Compile(*negated);
      }
      case FormulaKind::kExistsSet:
        return CompileExists(f, /*first_order=*/false);
      case FormulaKind::kForallSet: {
        auto negated = MakeNot(MakeExistsSet(f.set_var, MakeNot(f.left->Clone())));
        return Compile(*negated);
      }
    }
    return Status::Internal("unreachable formula kind");
  }

 private:
  // Automaton accepting every tree, over the given tracks.
  TrackedDta TrueAutomaton(std::vector<std::string> tracks) {
    std::sort(tracks.begin(), tracks.end());
    const uint32_t k = static_cast<uint32_t>(tracks.size());
    Dta t(1, std::vector<uint32_t>(base_ << k, 0));
    t.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
    t.AddTransition(0, kAbsentChild, 0, 0);
    t.AddTransition(kAbsentChild, 0, 0, 0);
    t.AddTransition(0, 0, 0, 0);
    t.SetAccepting(0, true);
    return {std::move(t), std::move(tracks)};
  }

  Result<TrackedDta> CompileAtom(const Formula& f) {
    const std::string& rel = f.relation;
    if (rel == "S1" || rel == "S2" || rel == "LEQ" || rel == "CHILD") {
      if (f.vars.size() != 2) {
        return Status::InvalidArgument(rel + " expects 2 arguments");
      }
      if (f.vars[0] == f.vars[1]) {
        if (rel == "LEQ") return TrueAutomaton({f.vars[0]});  // x <= x
        // x is never its own child: empty language over this track.
        TrackedDta t = TrueAutomaton({f.vars[0]});
        return TrackedDta{t.dta.Complement(), t.tracks};
      }
      std::vector<std::string> tracks{f.vars[0], f.vars[1]};
      std::sort(tracks.begin(), tracks.end());
      int x = TrackBit(tracks, f.vars[0]);
      int y = TrackBit(tracks, f.vars[1]);
      if (rel == "S1") return TrackedDta{ChildAtom(base_, x, y, 0), tracks};
      if (rel == "S2") return TrackedDta{ChildAtom(base_, x, y, 1), tracks};
      if (rel == "CHILD") return TrackedDta{ChildUnrankedAtom(base_, x, y), tracks};
      return TrackedDta{LeqAtom(base_, x, y), tracks};
    }
    if (rel == "ROOT" || rel == "LEAF") {
      if (f.vars.size() != 1) {
        return Status::InvalidArgument(rel + " expects 1 argument");
      }
      std::vector<std::string> tracks{f.vars[0]};
      Dta a = rel == "ROOT" ? RootAtom(base_, 0) : LeafAtom(base_, 0);
      return TrackedDta{std::move(a), std::move(tracks)};
    }
    if (StartsWith(rel, "P_")) {
      if (f.vars.size() != 1) {
        return Status::InvalidArgument("label atom " + rel + " expects 1 argument");
      }
      auto label = sigma_.Find(rel.substr(2));
      if (!label.ok()) return label.status();
      std::vector<std::string> tracks{f.vars[0]};
      return TrackedDta{LabelAtom(base_, label.value(), 0), std::move(tracks)};
    }
    return Status::InvalidArgument("unknown tree relation '" + rel + "'");
  }

  Result<TrackedDta> CompileExists(const Formula& f, bool first_order) {
    const std::string& var = first_order ? f.quantified_var : f.set_var;
    auto body = Compile(*f.left);
    if (!body.ok()) return body;
    TrackedDta inner = std::move(body).value();

    auto has_track = std::find(inner.tracks.begin(), inner.tracks.end(), var) !=
                     inner.tracks.end();
    if (!has_track) return inner;  // vacuous quantifier (trees are nonempty)

    if (first_order) {
      TrackedDta sing{SingletonAtom(base_), {var}};
      auto aligned_sing = Align(sing, inner.tracks, base_);
      if (!aligned_sing.ok()) return aligned_sing;
      inner.dta = Dta::Product(inner.dta, aligned_sing.value().dta, true).Minimize();
    }
    return Project(inner, var, base_, f);
  }

  const Alphabet& sigma_;
  uint32_t base_;
};

}  // namespace

Result<TrackedDta> CompileMso(const Formula& f, const Alphabet& sigma,
                              const std::vector<std::string>& var_order) {
  if (sigma.size() == 0) return Status::InvalidArgument("empty alphabet");

  std::map<std::string, std::string> scope;
  int counter = 0;
  FormulaPtr renamed = AlphaRename(f, scope, counter);

  Compiler compiler(sigma);
  auto compiled = compiler.Compile(*renamed);
  if (!compiled.ok()) return compiled;
  TrackedDta result = std::move(compiled).value();

  // All remaining tracks must be requested.
  for (const auto& t : result.tracks) {
    if (std::find(var_order.begin(), var_order.end(), t) == var_order.end()) {
      return Status::InvalidArgument("free variable '" + t +
                                     "' missing from var_order");
    }
  }

  std::vector<std::string> sorted = var_order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("duplicate variable in var_order");
    }
  }
  // Cylindrify up to the requested tracks, in var_order positions.
  return Align(result, var_order, static_cast<uint32_t>(sigma.size()));
}

std::vector<uint32_t> PebbledSymbols(const std::vector<uint32_t>& base_labels,
                                     uint32_t base_count,
                                     const std::vector<NodeId>& pebbles) {
  std::vector<uint32_t> out(base_labels.size());
  for (size_t v = 0; v < base_labels.size(); ++v) out[v] = base_labels[v];
  for (size_t i = 0; i < pebbles.size(); ++i) {
    QPWM_CHECK_LT(pebbles[i], base_labels.size());
    out[pebbles[i]] += base_count << i;
  }
  return out;
}

std::vector<uint32_t> SetSymbols(const std::vector<uint32_t>& base_labels,
                                 uint32_t base_count,
                                 const std::vector<std::vector<bool>>& track_sets) {
  std::vector<uint32_t> out(base_labels.size());
  for (size_t v = 0; v < base_labels.size(); ++v) {
    uint32_t bits = 0;
    for (size_t i = 0; i < track_sets.size(); ++i) {
      QPWM_CHECK_EQ(track_sets[i].size(), base_labels.size());
      if (track_sets[i][v]) bits |= 1u << i;
    }
    out[v] = base_labels[v] + base_count * bits;
  }
  return out;
}

Structure TreeToStructure(const BinaryTree& t, const Alphabet& sigma) {
  Signature sig;
  size_t s1 = sig.AddRelation("S1", 2);
  size_t s2 = sig.AddRelation("S2", 2);
  size_t leq = sig.AddRelation("LEQ", 2);
  size_t child = sig.AddRelation("CHILD", 2);
  size_t root = sig.AddRelation("ROOT", 1);
  size_t leaf = sig.AddRelation("LEAF", 1);
  std::vector<size_t> label_rel(sigma.size());
  for (size_t c = 0; c < sigma.size(); ++c) {
    label_rel[c] = sig.AddRelation("P_" + sigma.Name(static_cast<uint32_t>(c)), 1);
  }

  Structure g(sig, t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.left(v) != kNoNode) g.AddTuple(s1, Tuple{v, t.left(v)});
    if (t.right(v) != kNoNode) g.AddTuple(s2, Tuple{v, t.right(v)});
    // Unranked children: the S2-spine of the left child.
    for (NodeId c = t.left(v); c != kNoNode; c = t.right(c)) {
      g.AddTuple(child, Tuple{v, c});
    }
    for (NodeId w = 0; w < t.size(); ++w) {
      if (t.IsAncestorOrSelf(v, w)) g.AddTuple(leq, Tuple{v, w});
    }
    if (v == t.root()) g.AddTuple(root, Tuple{v});
    if (t.IsLeaf(v)) g.AddTuple(leaf, Tuple{v});
    g.AddTuple(label_rel[t.label(v)], Tuple{v});
  }
  g.Seal();
  return g;
}

}  // namespace qpwm
