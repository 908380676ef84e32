//===- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault injector for the chaos test suite. It is
/// compiled in unconditionally -- the disarmed fast path is a single relaxed
/// atomic load, cheap enough for the Rational hot loop -- and does nothing
/// unless a test arms it.
///
/// Injection points live at the five spots where real faults were observed
/// or are plausible under production load:
///
///   * RationalOp       -- every checked Rational multiply/add,
///   * DifferenceExpand -- each product-state expansion of the difference,
///   * NcsbSuccessor    -- each NCSB successor computation,
///   * ProverEntry      -- entry of the lasso and recurrence provers,
///   * SandboxEntry     -- entry of a sandboxed termcheckd worker process.
///
/// All sites but SandboxEntry throw through hit(). SandboxEntry is a HARD
/// fault site: the sandbox worker consumes its plan via consumeHard() and
/// turns the flavor into a real process death (raise(SIGSEGV), abort(), an
/// allocation bomb), which only the process-isolation layer can contain.
/// The armed state is plain process memory, so a forked worker inherits
/// the plan and its hit counters at fork time -- each worker replays the
/// plan independently, which is what the sandbox chaos flavor relies on.
///
/// Arming takes a single seed. The seed deterministically derives, per
/// site, whether the site is active this run, the hit index at which it
/// fires, and which fault it raises (an EngineError of some kind, a foreign
/// std::runtime_error, or std::bad_alloc). Each armed site fires exactly
/// once -- at hit N and never again -- so a contained fault cannot re-fire
/// forever and starve the run; determinism across runs of the same seed is
/// what makes chaos failures reproducible.
///
/// Hit counting is atomic, so the injector is safe under the portfolio's
/// worker threads; which thread absorbs the fault depends on scheduling,
/// but the chaos suite's assertions (no crash, no hang, verdicts only
/// weaken) are schedule-independent.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SUPPORT_FAULTINJECTOR_H
#define TERMCHECK_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>

namespace termcheck {

/// The instrumented sites. Keep NumSites last.
enum class FaultSite : uint8_t {
  RationalOp,
  DifferenceExpand,
  NcsbSuccessor,
  ProverEntry,
  SandboxEntry,
  NumSites,
};

/// \returns a stable name for the site (diagnostics, statistics).
const char *faultSiteName(FaultSite S);

/// What an armed site throws when it fires.
enum class FaultFlavor : uint8_t {
  Overflow,   ///< EngineError(ArithmeticOverflow)
  Exhausted,  ///< EngineError(ResourceExhausted)
  Invariant,  ///< EngineError(InternalInvariant)
  Foreign,    ///< std::runtime_error (models a buggy third-party throw)
  BadAlloc,   ///< std::bad_alloc (models memory pressure)
};

/// Process-wide deterministic fault injector. All members are static: the
/// instrumented sites must be reachable from a no-argument call, and tests
/// serialize arm()/disarm() around each run.
class FaultInjector {
public:
  /// Arms the injector with \p Seed. Derives the per-site plan (active?,
  /// trigger hit, flavor) and zeroes the hit counters. At least one site is
  /// always active. Not thread-safe against concurrently running analysis.
  static void arm(uint64_t Seed);

  /// Disarms and zeroes everything; subsequent hits are free no-ops.
  static void disarm();

  static bool armed() {
    return Armed.load(std::memory_order_relaxed);
  }

  /// Number of faults fired since the last arm().
  static uint64_t firedCount() {
    return Fired.load(std::memory_order_relaxed);
  }

  /// The instrumented-site hook. Disarmed: one relaxed load. Armed: bumps
  /// the site's hit counter and throws the planned fault when the counter
  /// reaches the planned trigger (exactly once per site per arm()).
  static void hit(FaultSite S) {
    if (!Armed.load(std::memory_order_relaxed))
      return;
    hitSlow(S);
  }

  /// The non-throwing twin of hit() for hard-fault sites: bumps the hit
  /// counter and, when this hit is the planned trigger, stores the planned
  /// flavor into \p F and returns true (exactly once per site per arm()).
  /// The caller executes the fault itself -- the sandbox worker maps the
  /// flavor onto a real crash/abort/allocation bomb.
  static bool consumeHard(FaultSite S, FaultFlavor &F);

  /// Introspection for determinism tests: the planned one-based trigger hit
  /// of \p S, or 0 when the site is inactive under the current plan.
  static uint64_t plannedTrigger(FaultSite S);
  static FaultFlavor plannedFlavor(FaultSite S);

private:
  static void hitSlow(FaultSite S);

  static std::atomic<bool> Armed;
  static std::atomic<uint64_t> Fired;
};

} // namespace termcheck

#endif // TERMCHECK_SUPPORT_FAULTINJECTOR_H
