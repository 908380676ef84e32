//===- termination/Generalize.h - Multi-stage generalization --*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-stage generalization of Section 3.1: turn one proved lasso
/// u v^omega into a certified module that is as cheap to complement as
/// possible while still containing u v^omega:
///
///   stage 0  M_uv    the initial certified lasso module (3.1.1); states
///                    with equal predicates are merged (all stem states
///                    carry oldrnk = INF and collapse when the supporting
///                    invariant is trivial, yielding languages like
///                    (i>0)* j:=1 (j<i j++)^omega from the paper).
///   stage 1  M_fin   finite-trace module for infeasible stems (3.1.2).
///   stage 2  M_det   Definition 3.2 subset construction (deterministic).
///   stage 3  M_semi  M_det with delayed-acceptance alternatives (3.1.4).
///   stage 4  M_non   every certificate-respecting transition (3.1.5).
///
/// Stages 2 and 3 are one subset construction: stage 3 switches on the
/// alternative successor. Stages 2-4 and the stem-saturated fallback all
/// ask one Hoare-triple question, successorsOf: which states' certificates
/// does the post of a predicate under a statement entail? Every stage
/// generalizes over the full program alphabet.
///
/// The driver tries the configured stage sequence in order and accepts the
/// first module whose language contains u v^omega.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TERMINATION_GENERALIZE_H
#define TERMCHECK_TERMINATION_GENERALIZE_H

#include "termination/CertifiedModule.h"
#include "termination/LassoProver.h"

#include <functional>
#include <optional>

namespace termcheck {

/// Stage-0..4 module constructions over one program.
class ModuleBuilder {
public:
  explicit ModuleBuilder(Program &P) : P(P) {}

  /// Optional budget hook, polled once per popped subset in the stage-2
  /// and stage-3 worklists and once per source state in stage 4. When it
  /// fires the construction stops early; aborted() then reports true and
  /// the incomplete module must be discarded.
  std::function<bool()> ShouldAbort;

  /// True once ShouldAbort fired during any construction of this builder.
  bool aborted() const { return Aborted; }

  /// Stage 0 (Section 3.1.1). \p Proof must be Terminating.
  CertifiedModule buildLasso(const Lasso &L, const LassoProof &Proof);

  /// Stage 1 (Section 3.1.2). \p Proof must be StemInfeasible. The module
  /// stores its universal accepting state in UniversalState.
  CertifiedModule buildFiniteTrace(const Lasso &L, const LassoProof &Proof);

  /// Stage 2 (Definition 3.2) from a stage-0 module.
  CertifiedModule buildDeterministic(const CertifiedModule &M0);

  /// Stage 3 (Section 3.1.4) from a stage-0 module.
  CertifiedModule buildSemideterministic(const CertifiedModule &M0);

  /// Stage 4 (Section 3.1.5) from a stage-0 module.
  CertifiedModule buildNondeterministic(const CertifiedModule &M0);

  /// Stem-saturated lasso module: every certificate-respecting transition
  /// among the stem (oldrnk = INF) states and into the loop head is added,
  /// while the loop part keeps the exact word shape. The result is always
  /// semideterministic and contains u v^omega, so it is the robust
  /// fallback when the subset-construction M_semi rejects the word and
  /// M_nondet is too expensive to complement (an engineering middle stage
  /// in the spirit of the paper's "more intermediate constructions can be
  /// added" remark).
  CertifiedModule buildSaturatedLasso(const CertifiedModule &M0);

private:
  Program &P;
  bool Aborted = false;

  /// Polls ShouldAbort; latches Aborted when it fires.
  bool pollAbort();

  /// Conjunction of the certificate predicates of a state set.
  Predicate conjoinAll(const CertifiedModule &M0, const StateSet &Q) const;

  /// The states of \p M0 whose certificates the post of \p Pre under
  /// \p Sym entails, with `oldrnk := f` applied first when the source is
  /// accepting: delta-and of Definition 3.2, and the per-state transition
  /// rule of stage 4.
  StateSet successorsOf(const CertifiedModule &M0, const Predicate &Pre,
                        bool FromAccepting, Symbol Sym) const;

  /// The subset construction of stage 2; with \p DelayedAcceptance, the
  /// stage-3 construction (before its semideterminism guard).
  CertifiedModule buildSubsetModule(const CertifiedModule &M0,
                                    bool DelayedAcceptance);

  /// Definition 3.2's pruning of non-accepting oldrnk states when qf is in
  /// the successor set.
  StateSet pruneForDet(const CertifiedModule &M0, State Qf,
                       const StateSet &D) const;

  /// Merges states with identical predicates and acceptance status.
  CertifiedModule mergeEqualPredicates(const CertifiedModule &M) const;
};

} // namespace termcheck

#endif // TERMCHECK_TERMINATION_GENERALIZE_H
