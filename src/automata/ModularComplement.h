//===- automata/ModularComplement.h - Co-reach-cut complement -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modular complement of one certified module (after Havlena et al.'s
/// mix-and-match complementation, PAPERS.md). Every accepting run of a BA
/// is eventually trapped in an accepting SCC -- a nontrivial SCC holding an
/// accepting state -- so restricting the BA to the states that can still
/// reach an accepting state of such an SCC, with acceptance narrowed to
/// those states, preserves its language. The restriction is what makes a
/// cheap construction applicable: it drops everything downstream of the
/// accepting SCCs, so a semideterministic core becomes a genuine SDBA, and
/// inert-weak SCCs collapse to the single universal state of the
/// finite-trace shape. The builder picks, in order:
///
///   * every accepting SCC inert-weak -> finite-trace complement;
///   * the completed cut deterministic -> Kurshan's DBA complement;
///   * the cut an SDBA                 -> NCSB (variant per options);
///   * otherwise no complement (the caller falls back to the monolithic
///     chain).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_MODULARCOMPLEMENT_H
#define TERMCHECK_AUTOMATA_MODULARCOMPLEMENT_H

#include "automata/ComplementOracle.h"
#include "automata/Ncsb.h"
#include "automata/Sdba.h"

#include <memory>
#include <optional>

namespace termcheck {

/// A built complement: the oracle plus the automata it reads. The oracle
/// keeps references into Cut/Prepared, so the object neither copies nor
/// moves; it is handed out behind a unique_ptr.
struct ModularComplement {
  /// The restricted module: collapsed for the finite-trace complement,
  /// completed for the DBA complement, as cut for NCSB.
  Buchi Cut;
  /// NCSB's normalized input (set only when NCSB complements the cut).
  std::optional<Sdba> Prepared;
  std::unique_ptr<ComplementOracle> Oracle;

  explicit ModularComplement(Buchi Cut) : Cut(std::move(Cut)) {}
  ModularComplement(const ModularComplement &) = delete;
  ModularComplement &operator=(const ModularComplement &) = delete;
};

/// Builds the modular complement of \p A (one acceptance condition),
/// complementing semideterministic cuts with NCSB variant \p Ncsb.
/// \returns nullptr when the cut fits none of the three constructions.
std::unique_ptr<ModularComplement>
buildModularComplement(const Buchi &A, NcsbVariant Ncsb = NcsbVariant::Lazy);

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_MODULARCOMPLEMENT_H
