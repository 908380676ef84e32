//===- tests/error_test.cpp - Error taxonomy and fault machinery ---------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/ResourceGuard.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace termcheck;

TEST(EngineError, CarriesKindAndMessage) {
  EngineError E(ErrorKind::ArithmeticOverflow, "128-bit product");
  EXPECT_EQ(E.kind(), ErrorKind::ArithmeticOverflow);
  EXPECT_EQ(E.message(), "128-bit product");
  EXPECT_STREQ(E.what(), "arithmetic_overflow: 128-bit product");
}

TEST(EngineError, KindNamesAreStable) {
  EXPECT_STREQ(errorKindName(ErrorKind::ArithmeticOverflow),
               "arithmetic_overflow");
  EXPECT_STREQ(errorKindName(ErrorKind::ResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(errorKindName(ErrorKind::ParseFailure), "parse_failure");
  EXPECT_STREQ(errorKindName(ErrorKind::InternalInvariant),
               "internal_invariant");
}

TEST(EngineError, IsAStdException) {
  // The CLI's std::exception handler must be able to catch it.
  try {
    throw EngineError(ErrorKind::ResourceExhausted, "budget");
  } catch (const std::exception &E) {
    EXPECT_STREQ(E.what(), "resource_exhausted: budget");
  }
}

TEST(ErrorOr, HoldsValue) {
  ErrorOr<int> R(42);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.value(), 42);
  EXPECT_EQ(*R, 42);
  EXPECT_EQ(R.valueOr(-1), 42);
}

TEST(ErrorOr, HoldsError) {
  ErrorOr<int> R(EngineError(ErrorKind::InternalInvariant, "oops"));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().kind(), ErrorKind::InternalInvariant);
  EXPECT_EQ(R.valueOr(-1), -1);
}

TEST(ErrorOrOf, CapturesValue) {
  ErrorOr<int> R = errorOrOf([] { return 7; });
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.value(), 7);
}

TEST(ErrorOrOf, CapturesEngineErrorVerbatim) {
  ErrorOr<int> R = errorOrOf([]() -> int {
    throw EngineError(ErrorKind::ArithmeticOverflow, "boom");
  });
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().kind(), ErrorKind::ArithmeticOverflow);
  EXPECT_EQ(R.error().message(), "boom");
}

TEST(ErrorOrOf, FoldsForeignExceptionsIntoTaxonomy) {
  ErrorOr<int> Foreign =
      errorOrOf([]() -> int { throw std::runtime_error("third-party"); });
  ASSERT_FALSE(Foreign.ok());
  EXPECT_EQ(Foreign.error().kind(), ErrorKind::InternalInvariant);
  EXPECT_EQ(Foreign.error().message(), "third-party");

  ErrorOr<int> Alloc = errorOrOf([]() -> int { throw std::bad_alloc(); });
  ASSERT_FALSE(Alloc.ok());
  EXPECT_EQ(Alloc.error().kind(), ErrorKind::ResourceExhausted);
}

namespace {

/// RAII disarm so a failing assertion cannot leak an armed injector into
/// the next test.
struct ArmedScope {
  explicit ArmedScope(uint64_t Seed) { FaultInjector::arm(Seed); }
  ~ArmedScope() { FaultInjector::disarm(); }
};

} // namespace

TEST(FaultInjector, DisarmedHitsAreFreeNoOps) {
  FaultInjector::disarm();
  for (int I = 0; I < 1000; ++I)
    FaultInjector::hit(FaultSite::RationalOp); // must not throw
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_EQ(FaultInjector::firedCount(), 0u);
}

TEST(FaultInjector, PlansAreDeterministicPerSeed) {
  uint64_t Trig[2][static_cast<size_t>(FaultSite::NumSites)];
  FaultFlavor Flav[2][static_cast<size_t>(FaultSite::NumSites)];
  for (int Round = 0; Round < 2; ++Round) {
    ArmedScope Armed(12345);
    for (size_t S = 0; S < static_cast<size_t>(FaultSite::NumSites); ++S) {
      Trig[Round][S] = FaultInjector::plannedTrigger(static_cast<FaultSite>(S));
      Flav[Round][S] = FaultInjector::plannedFlavor(static_cast<FaultSite>(S));
    }
  }
  for (size_t S = 0; S < static_cast<size_t>(FaultSite::NumSites); ++S) {
    EXPECT_EQ(Trig[0][S], Trig[1][S]) << "site " << S;
    EXPECT_EQ(Flav[0][S], Flav[1][S]) << "site " << S;
  }
}

TEST(FaultInjector, AtLeastOneSiteActivePerSeed) {
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    ArmedScope Armed(Seed);
    uint64_t Active = 0;
    for (size_t S = 0; S < static_cast<size_t>(FaultSite::NumSites); ++S)
      if (FaultInjector::plannedTrigger(static_cast<FaultSite>(S)) != 0)
        ++Active;
    EXPECT_GE(Active, 1u) << "seed " << Seed;
  }
}

TEST(FaultInjector, FiresExactlyOnceAtThePlannedHit) {
  // Find a seed whose RationalOp site is active, then drive the site by
  // hand and check the one-shot contract.
  for (uint64_t Seed = 0; Seed < 256; ++Seed) {
    ArmedScope Armed(Seed);
    uint64_t Trigger = FaultInjector::plannedTrigger(FaultSite::RationalOp);
    if (Trigger == 0 || Trigger > 64)
      continue;
    uint64_t ThrownAt = 0;
    for (uint64_t Hit = 1; Hit <= Trigger + 32; ++Hit) {
      try {
        FaultInjector::hit(FaultSite::RationalOp);
      } catch (...) {
        EXPECT_EQ(ThrownAt, 0u) << "fired twice, seed " << Seed;
        ThrownAt = Hit;
      }
    }
    EXPECT_EQ(ThrownAt, Trigger) << "seed " << Seed;
    EXPECT_EQ(FaultInjector::firedCount(), 1u);
    return;
  }
  FAIL() << "no seed with a small active RationalOp trigger in [0,256)";
}

TEST(FaultInjector, SiteNamesAreStable) {
  EXPECT_STREQ(faultSiteName(FaultSite::RationalOp), "rational_op");
  EXPECT_STREQ(faultSiteName(FaultSite::DifferenceExpand),
               "difference_expand");
  EXPECT_STREQ(faultSiteName(FaultSite::NcsbSuccessor), "ncsb_successor");
  EXPECT_STREQ(faultSiteName(FaultSite::ProverEntry), "prover_entry");
}

TEST(ResourceGuard, UnlimitedByDefault) {
  ResourceGuard G;
  G.chargeStates(1u << 20);
  EXPECT_FALSE(G.exhausted());
  EXPECT_FALSE(G.wouldExceed(1u << 20));
  EXPECT_EQ(G.statesCharged(), uint64_t(1) << 20);
}

TEST(ResourceGuard, StateCapTripsStickily) {
  ResourceGuard::Limits L;
  L.MaxStates = 100;
  ResourceGuard G(L);
  G.chargeStates(60);
  EXPECT_FALSE(G.exhausted());
  EXPECT_TRUE(G.wouldExceed(50));
  EXPECT_FALSE(G.wouldExceed(40));
  G.chargeStates(60);
  EXPECT_TRUE(G.exhausted());
  // Sticky: stays exhausted forever, like a cancelled token.
  EXPECT_TRUE(G.exhausted());
}

TEST(ResourceGuard, ManualTrip) {
  ResourceGuard G;
  EXPECT_FALSE(G.exhausted());
  G.trip();
  EXPECT_TRUE(G.exhausted());
}
