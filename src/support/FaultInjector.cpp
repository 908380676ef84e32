//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/Error.h"

#include <new>
#include <stdexcept>
#include <string>

using namespace termcheck;

namespace {

constexpr size_t NumSites = static_cast<size_t>(FaultSite::NumSites);

/// Per-site plan derived from the seed. Trigger == 0 means inactive.
struct SitePlan {
  uint64_t Trigger = 0;
  FaultFlavor Flavor = FaultFlavor::Overflow;
};

SitePlan Plans[NumSites];
std::atomic<uint64_t> Hits[NumSites];

/// splitmix64: the standard cheap seed expander; every site gets an
/// independent stream from (seed, site).
uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

std::atomic<bool> FaultInjector::Armed{false};
std::atomic<uint64_t> FaultInjector::Fired{0};

const char *termcheck::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::RationalOp:
    return "rational_op";
  case FaultSite::DifferenceExpand:
    return "difference_expand";
  case FaultSite::NcsbSuccessor:
    return "ncsb_successor";
  case FaultSite::ProverEntry:
    return "prover_entry";
  case FaultSite::SandboxEntry:
    return "sandbox_entry";
  case FaultSite::NumSites:
    break;
  }
  return "?";
}

void FaultInjector::arm(uint64_t Seed) {
  disarm();
  bool AnyActive = false;
  for (size_t I = 0; I < NumSites; ++I) {
    uint64_t H = splitmix64(Seed * NumSites + I + 1);
    // Roughly half the sites are active per seed; triggers land early
    // enough (1..400 hits) that small analysis runs actually reach them.
    bool Active = (H & 1) != 0;
    Plans[I].Trigger = Active ? 1 + ((H >> 8) % 400) : 0;
    Plans[I].Flavor = static_cast<FaultFlavor>((H >> 3) % 5);
    AnyActive = AnyActive || Active;
  }
  if (!AnyActive) {
    uint64_t H = splitmix64(Seed);
    size_t I = H % NumSites;
    Plans[I].Trigger = 1 + ((H >> 8) % 400);
    Plans[I].Flavor = static_cast<FaultFlavor>((H >> 3) % 5);
  }
  Armed.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  Armed.store(false, std::memory_order_relaxed);
  Fired.store(0, std::memory_order_relaxed);
  for (size_t I = 0; I < NumSites; ++I) {
    Plans[I] = SitePlan();
    Hits[I].store(0, std::memory_order_relaxed);
  }
}

uint64_t FaultInjector::plannedTrigger(FaultSite S) {
  return Plans[static_cast<size_t>(S)].Trigger;
}

FaultFlavor FaultInjector::plannedFlavor(FaultSite S) {
  return Plans[static_cast<size_t>(S)].Flavor;
}

bool FaultInjector::consumeHard(FaultSite S, FaultFlavor &F) {
  if (!Armed.load(std::memory_order_relaxed))
    return false;
  const size_t I = static_cast<size_t>(S);
  const SitePlan &P = Plans[I];
  if (P.Trigger == 0)
    return false;
  uint64_t Before = Hits[I].fetch_add(1, std::memory_order_relaxed);
  if (Before + 1 != P.Trigger)
    return false;
  Fired.fetch_add(1, std::memory_order_relaxed);
  F = P.Flavor;
  return true;
}

void FaultInjector::hitSlow(FaultSite S) {
  const size_t I = static_cast<size_t>(S);
  const SitePlan &P = Plans[I];
  if (P.Trigger == 0)
    return;
  // fetch_add returns the pre-increment count, so exactly one thread sees
  // Trigger - 1 and fires; later hits sail past.
  uint64_t Before = Hits[I].fetch_add(1, std::memory_order_relaxed);
  if (Before + 1 != P.Trigger)
    return;
  Fired.fetch_add(1, std::memory_order_relaxed);
  std::string Where =
      std::string("injected fault at ") + faultSiteName(S);
  switch (P.Flavor) {
  case FaultFlavor::Overflow:
    throw EngineError(ErrorKind::ArithmeticOverflow, Where);
  case FaultFlavor::Exhausted:
    throw EngineError(ErrorKind::ResourceExhausted, Where);
  case FaultFlavor::Invariant:
    throw EngineError(ErrorKind::InternalInvariant, Where);
  case FaultFlavor::Foreign:
    throw std::runtime_error(Where);
  case FaultFlavor::BadAlloc:
    throw std::bad_alloc();
  }
}
