//===- automata/Scc.h - SCC-based emptiness and Algorithm 1 ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SCC machinery of Section 4:
///
/// * GbaSource -- an implicitly-given GBA ("Algorithm 1 is amenable to
///   on-the-fly traversal of the automaton A, i.e., A can be provided
///   implicitly"). Product-with-complement automata implement this
///   interface so the complement is only built where the product visits it.
/// * UselessStateRemover -- Algorithm 1 of the paper: the Gaiser-Schwoon /
///   Couvreur emptiness check modified to classify every visited state as
///   useful (nonempty language) or useless, with pluggable emp-set hooks so
///   Section 6's subsumption closure (the antichain) can replace exact
///   membership.
/// * isEmpty / findAcceptingLasso -- emptiness and ultimately periodic
///   counterexample extraction for explicit GBAs.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_SCC_H
#define TERMCHECK_AUTOMATA_SCC_H

#include "automata/Buchi.h"

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace termcheck {

/// An implicitly represented GBA traversed on the fly. Implementations hand
/// out dense state ids of their own choosing.
class GbaSource {
public:
  virtual ~GbaSource() = default;

  /// Bitmask covering every acceptance condition.
  virtual uint64_t fullMask() const = 0;

  /// The initial states (deterministic order).
  virtual std::vector<State> initialStates() = 0;

  /// The acceptance-condition mask of \p S.
  virtual uint64_t acceptMask(State S) = 0;

  /// Appends every arc of \p S to \p Out (deterministic order).
  virtual void arcs(State S, std::vector<Buchi::Arc> &Out) = 0;
};

/// GbaSource view of an explicit automaton.
class ExplicitGbaSource : public GbaSource {
public:
  explicit ExplicitGbaSource(const Buchi &A) : A(A) {}

  uint64_t fullMask() const override { return A.fullMask(); }
  std::vector<State> initialStates() override {
    return A.initials().elems();
  }
  uint64_t acceptMask(State S) override { return A.acceptMask(S); }
  void arcs(State S, std::vector<Buchi::Arc> &Out) override {
    std::span<const Buchi::Arc> Row = A.arcsFrom(S);
    Out.insert(Out.end(), Row.begin(), Row.end());
  }

private:
  const Buchi &A;
};

/// Outcome of running Algorithm 1.
struct RemoveUselessResult {
  /// Source ids of states proved useful, in classification order.
  std::vector<State> Useful;
  /// True when no initial state is useful (the language is empty).
  bool LanguageEmpty = true;
  /// Number of distinct states whose successors were expanded.
  size_t StatesExplored = 0;
  /// True when the run was cut short by the ShouldAbort hook; the
  /// classification is then partial and LanguageEmpty unreliable.
  bool Aborted = false;
};

/// Algorithm 1: classify reachable states of a GbaSource as useful/useless.
///
/// The emp set is externalized through two hooks so the difference engine
/// can maintain it as a subsumption antichain (Section 6):
///   IsKnownUseless(q) implements the test `q in CEIL(emp)`;
///   AddUseless(q)     implements `emp.add(q)`.
/// When the hooks are unset an exact hash set is used.
class UselessStateRemover {
public:
  std::function<bool(State)> IsKnownUseless;
  std::function<void(State)> AddUseless;

  /// When true, stop as soon as one accepting SCC is found (this restores
  /// the plain Gaiser-Schwoon emptiness test; the Useful classification is
  /// then partial).
  bool StopAtFirstAccepting = false;

  /// Optional budget hook, polled every PollStride expansions; returning
  /// true aborts the run (Result.Aborted is set).
  std::function<bool()> ShouldAbort;

  /// Expansions between two ShouldAbort evaluations. The default suits
  /// wall-clock hooks; budget enforcement (state caps, resource guards)
  /// lowers it so small constructions cannot dodge the cap between polls.
  uint32_t PollStride = 256;

  RemoveUselessResult run(GbaSource &Src);
};

/// \returns true iff L(A) is empty (Gaiser-Schwoon over the explicit GBA).
bool isEmpty(const Buchi &A);

/// Tarjan SCC decomposition of the reachable part of an explicit GBA.
/// Component ids are assigned in reverse topological completion order
/// (every arc between distinct components goes from a higher id to a
/// lower one). Unreachable states carry component id -1.
struct SccDecomposition {
  std::vector<int32_t> CompOf; ///< per state; -1 for unreachable
  uint32_t NumComps = 0;

  /// \returns true when \p S and \p T share a (reachable) component.
  bool sameComponent(State S, State T) const {
    return CompOf[S] >= 0 && CompOf[S] == CompOf[T];
  }
};

/// Runs Tarjan's algorithm from the initial states of \p A.
SccDecomposition sccDecompose(const Buchi &A);

/// An ultimately periodic word u v^omega.
struct LassoWord {
  std::vector<Symbol> Stem;
  std::vector<Symbol> Loop; // nonempty

  std::string str() const;
};

/// Finds an accepting lasso of the GBA, preferring short stems.
/// \returns std::nullopt when the language is empty.
std::optional<LassoWord> findAcceptingLasso(const Buchi &A);

/// Ultimately periodic membership: \returns true iff A accepts
/// Stem . Loop^omega. \p W.Loop must be nonempty.
bool acceptsLasso(const Buchi &A, const LassoWord &W);

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_SCC_H
