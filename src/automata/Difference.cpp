//===- automata/Difference.cpp - On-the-fly GBA \ BA difference ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Difference.h"

#include "automata/Interner.h"
#include "automata/PerfCounters.h"
#include "support/FaultInjector.h"

#include <cassert>

using namespace termcheck;

namespace {

/// The on-the-fly product A x B-bar as a GbaSource. Product states are
/// interned (aState, cState) pairs; arcs are memoized because Algorithm 1
/// asks for them once per expansion and the materialization step asks
/// again. Both the pair index and the arc memo are flat: product ids are
/// dense, and every memoized arc lives in one pool, state S's arcs at
/// Pool[Rows[S].Begin .. Rows[S].End). A state's arcs are contiguous
/// because they are appended in one go when it is first expanded: the
/// oracle never re-enters the product mid-expansion.
class ProductSource : public GbaSource {
public:
  ProductSource(const Buchi &A, ComplementOracle &BC) : A(A), BC(BC) {
    A.ensureIndex(); // arcsFrom below wants the deduped arc lists
  }

  uint64_t fullMask() const override {
    return (A.fullMask() << 1) | 1; // bit 0: complement acceptance
  }

  std::vector<State> initialStates() override {
    std::vector<State> Out;
    for (State P : A.initials().elems())
      for (State Q : BC.initialStates())
        Out.push_back(intern(P, Q));
    return Out;
  }

  uint64_t acceptMask(State S) override {
    auto [P, Q] = Pairs.get(S);
    return (A.acceptMask(P) << 1) | (BC.isAccepting(Q) ? 1 : 0);
  }

  void arcs(State S, std::vector<Buchi::Arc> &Out) override {
    if (S < Rows.size() && Rows[S].Begin != Unexpanded) {
      Out.insert(Out.end(), Pool.begin() + Rows[S].Begin,
                 Pool.begin() + Rows[S].End);
      return;
    }
    FaultInjector::hit(FaultSite::DifferenceExpand);
    const uint32_t Begin = static_cast<uint32_t>(Pool.size());
    auto [P, Q] = Pairs.get(S);
    for (const Buchi::Arc &ArcA : A.arcsFrom(P)) {
      SuccBuf.clear();
      BC.successors(Q, ArcA.Sym, SuccBuf);
      for (State CTo : SuccBuf)
        Pool.push_back({ArcA.Sym, intern(ArcA.To, CTo)});
    }
    assert(Pool.size() < Unexpanded && "arc pool offsets are 32-bit");
    const uint32_t End = static_cast<uint32_t>(Pool.size());
    Out.insert(Out.end(), Pool.begin() + Begin, Pool.begin() + End);
    // intern() above may have discovered fresh states; size the memo after.
    if (Rows.size() < Pairs.size())
      Rows.resize(Pairs.size(), {Unexpanded, Unexpanded});
    Rows[S] = {Begin, End};
    perf::local().ArcsMemoized += End - Begin;
  }

  /// Decodes a product id.
  std::pair<State, State> decode(State S) const { return Pairs.get(S); }

  size_t numProductStates() const { return Pairs.size(); }
  size_t numArcsMemoized() const { return Pool.size(); }

private:
  /// A product state's slice of the pool; Begin = Unexpanded until then.
  struct ArcRange {
    uint32_t Begin, End;
  };
  static constexpr uint32_t Unexpanded = ~uint32_t(0);

  const Buchi &A;
  ComplementOracle &BC;
  PairInterner Pairs;
  std::vector<Buchi::Arc> Pool;
  std::vector<ArcRange> Rows;
  std::vector<State> SuccBuf; // scratch for one oracle successor query

  State intern(State P, State Q) { return Pairs.intern(P, Q).first; }
};

} // namespace

DifferenceResult termcheck::difference(const Buchi &A, ComplementOracle &BC,
                                       const DifferenceOptions &Opts) {
  assert(A.numSymbols() == BC.numSymbols() && "alphabet mismatch");
  assert(A.numConditions() + 1 <= 64 && "too many acceptance conditions");

  ProductSource Src(A, BC);
  UselessStateRemover Remover;
  // Fold every budget into one hook: the caller's sticky deadline /
  // cancellation, the per-construction state cap, and the shared resource
  // guard. Cap trips are remembered separately so the caller can tell
  // "this construction was too big" (degradable) from "the whole run is
  // over" (sticky).
  bool CapHit = false;
  std::function<bool()> Hook;
  if (Opts.ShouldAbort || Opts.MaxProductStates != 0 || Opts.Guard) {
    size_t Cap = Opts.MaxProductStates;
    ResourceGuard *Guard = Opts.Guard;
    Hook = [&Src, &BC, &CapHit, Cap, Guard,
            Outer = Opts.ShouldAbort]() -> bool {
      size_t Live = Src.numProductStates() + BC.numStatesDiscovered();
      if (Cap != 0 && Live > Cap) {
        CapHit = true;
        return true;
      }
      if (Guard) {
        if (Guard->exhausted())
          return true;
        if (Guard->wouldExceed(Live)) {
          CapHit = true;
          return true;
        }
      }
      return Outer && Outer();
    };
  }
  Remover.ShouldAbort = Hook;
  // Thread the budget into the oracle too: one product expansion can hide
  // an exponential NCSB split enumeration, and the remover only polls
  // between expansions.
  BC.ShouldAbort = Hook;
  // State budgets need prompt polls: with the default 256-call stride a
  // small construction finishes (or overshoots the cap by hundreds of
  // states) before the first evaluation. Pure wall-clock/cancellation
  // hooks keep the cheap sparse stride.
  if (Opts.MaxProductStates != 0 || Opts.Guard) {
    Remover.PollStride = 8;
    BC.setPollStride(8);
  }

  // emp as a per-A-state antichain of complement macro-states, compared
  // with the oracle's subsumption relation (Section 6, Eq. 10). Without
  // subsumption the oracle relation degrades to equality, which makes this
  // an exact set. A states are dense, so the per-state chains live in a
  // flat vector instead of a hash map.
  std::vector<std::vector<State>> Emp;
  size_t SubsumptionPruned = 0;
  if (Opts.UseSubsumption) {
    Emp.resize(A.numStates());
    Remover.IsKnownUseless = [&](State S) {
      auto [P, Q] = Src.decode(S);
      for (State R : Emp[P])
        if (BC.subsumedBy(Q, R)) {
          ++SubsumptionPruned;
          return true;
        }
      return false;
    };
    Remover.AddUseless = [&](State S) {
      auto [P, Q] = Src.decode(S);
      std::vector<State> &Chain = Emp[P];
      // Keep only subsumption-maximal elements ("emp can be maintained in
      // the form of an antichain", Section 6).
      for (State R : Chain)
        if (BC.subsumedBy(Q, R))
          return;
      size_t Keep = 0;
      for (size_t I = 0; I < Chain.size(); ++I)
        if (!BC.subsumedBy(Chain[I], Q))
          Chain[Keep++] = Chain[I];
      Chain.resize(Keep);
      Chain.push_back(Q);
    };
  }

  DifferenceResult Out{Buchi(A.numSymbols(), A.numConditions() + 1)};
  // A guard that is already exhausted (earlier subtraction, another
  // portfolio entrant) stops the construction before any work: the sticky
  // trip is run-level, not a per-construction cap.
  if (Opts.Guard && Opts.Guard->exhausted()) {
    Out.Aborted = true;
    return Out;
  }

  // Only completed constructions are charged: an aborted one frees its
  // states on return, and charging it would double-bill retries.
  auto ChargeGuard = [&] {
    if (Opts.Guard)
      Opts.Guard->chargeStates(Out.ProductStatesExplored +
                               Out.ComplementStatesDiscovered);
  };

  // An emptiness-only query is the plain Gaiser-Schwoon test: stop at the
  // first accepting SCC and skip the materialization below.
  Remover.StopAtFirstAccepting = Opts.EmptinessOnly;
  RemoveUselessResult R = Remover.run(Src);
  Out.IsEmpty = R.LanguageEmpty;
  Out.ProductStatesExplored = R.StatesExplored;
  Out.ComplementStatesDiscovered = BC.numStatesDiscovered();
  Out.SubsumptionPruned = SubsumptionPruned;
  Out.ArcsMemoized = Src.numArcsMemoized();
  // An oracle-side abort truncated some successor list, so the search saw
  // an under-approximated product; the classification is as invalid as a
  // remover-side abort.
  Out.Aborted = R.Aborted || BC.aborted();
  Out.HitStateCap = CapHit;
  if (Out.Aborted)
    return Out;
  if (Opts.EmptinessOnly) {
    ChargeGuard();
    return Out;
  }

  // Materialize the useful part. Product condition bit 0 is the
  // complement's; shift A's conditions up by one to match acceptMask().
  // Product ids are dense, so the useful->fresh map is a flat vector with
  // a sentinel for dropped states.
  constexpr State NotUseful = ~State(0);
  std::vector<State> Map(Src.numProductStates(), NotUseful);
  for (State S : R.Useful) {
    State Fresh = Out.D.addState();
    Out.D.setAcceptMask(Fresh, Src.acceptMask(S));
    Map[S] = Fresh;
  }
  std::vector<Buchi::Arc> Buf;
  uint32_t PollCountdown = 256;
  for (State S : R.Useful) {
    if (Hook && --PollCountdown == 0) {
      PollCountdown = 256;
      if (Hook()) {
        Out.Aborted = true;
        Out.HitStateCap = CapHit;
        return Out;
      }
    }
    Buf.clear();
    Src.arcs(S, Buf);
    for (const Buchi::Arc &Arc : Buf)
      if (Arc.To < Map.size() && Map[Arc.To] != NotUseful)
        Out.D.addTransition(Map[S], Arc.Sym, Map[Arc.To]);
  }
  for (State S : Src.initialStates()) {
    if (Map[S] != NotUseful)
      Out.D.addInitial(Map[S]);
  }
  Out.D.compact();
  Out.ArcsMemoized = Src.numArcsMemoized();
  ChargeGuard();
  return Out;
}
