//===- termination/ModuleCache.cpp - Cross-run module cache -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/ModuleCache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace termcheck;

//===----------------------------------------------------------------------===//
// Canonicalization: variable slots and statement renderings
//===----------------------------------------------------------------------===//

namespace {

/// Variable slot reserved for the auxiliary `oldrnk` in serialized
/// predicates and ranks (it is not a program variable, so it never gets a
/// canonical slot of its own).
constexpr uint32_t OldrnkSlot = 0xFFFFFFFFu;

/// Upper bounds a structurally-valid entry may not exceed; anything larger
/// is treated as corruption (the decoder must never allocate unbounded
/// memory from attacker-shaped bytes).
constexpr uint32_t MaxDecodedStates = 1u << 20;
constexpr uint32_t MaxDecodedAtoms = 1u << 16;
constexpr uint32_t MaxDecodedTerms = 1u << 16;
constexpr uint32_t MaxDecodedArcs = 1u << 24;
constexpr uint32_t MaxDecodedStringBytes = 1u << 20;

template <typename Fn> void visitStatementVars(const Statement &S, Fn F) {
  switch (S.kind()) {
  case StmtKind::Assume:
    for (const Constraint &C : S.guard().atoms())
      for (const LinearExpr::Term &T : C.expr().terms())
        F(T.Var);
    break;
  case StmtKind::Assign:
    F(S.target());
    for (const LinearExpr::Term &T : S.rhs().terms())
      F(T.Var);
    break;
  case StmtKind::Havoc:
    F(S.target());
    break;
  }
}

/// Canonical view of one program: variable -> dense slot by first
/// occurrence (edge order, then leftover pool statements in symbol order)
/// and one canonical rendering per alphabet symbol. The renderings go
/// through the ordinary Statement/LinearExpr printers over a synthetic
/// `v<slot>` variable table, so they are whitespace-normal by construction.
struct Canonicalizer {
  const Program &P;
  std::unordered_map<VarId, uint32_t> SlotOf;
  std::vector<VarId> VarOfSlot;
  VarTable CanonVars; // id i == slot i
  std::vector<std::string> SymStr;

  explicit Canonicalizer(const Program &Prog) : P(Prog) {
    for (const Program::Edge &E : P.edges())
      visitStatementVars(P.statement(E.Sym), [&](VarId V) { slot(V); });
    for (SymbolId S = 0; S < P.numSymbols(); ++S)
      visitStatementVars(P.statement(S), [&](VarId V) { slot(V); });
    SymStr.reserve(P.numSymbols());
    for (SymbolId S = 0; S < P.numSymbols(); ++S)
      SymStr.push_back(render(P.statement(S)));
  }

  uint32_t slot(VarId V) {
    auto It = SlotOf.find(V);
    if (It != SlotOf.end())
      return It->second;
    uint32_t S = static_cast<uint32_t>(VarOfSlot.size());
    SlotOf.emplace(V, S);
    VarOfSlot.push_back(V);
    VarId Id = CanonVars.intern("v" + std::to_string(S));
    (void)Id;
    assert(Id == S && "canonical table must be slot-dense");
    return S;
  }

  LinearExpr mapExpr(const LinearExpr &E) {
    LinearExpr R = LinearExpr::constant(E.constantTerm());
    for (const LinearExpr::Term &T : E.terms())
      R = R + LinearExpr::scaled(slot(T.Var), T.Coeff);
    return R;
  }

  Cube mapCube(const Cube &C) {
    if (C.isContradictory())
      return Cube::contradiction();
    Cube R;
    R.reserve(C.size());
    for (const Constraint &A : C.atoms())
      R.add(Constraint::make(mapExpr(A.expr()), A.rel()));
    return R;
  }

  std::string render(const Statement &S) {
    switch (S.kind()) {
    case StmtKind::Assume:
      return Statement::assume(mapCube(S.guard())).str(CanonVars);
    case StmtKind::Assign:
      return Statement::assign(slot(S.target()), mapExpr(S.rhs()))
          .str(CanonVars);
    case StmtKind::Havoc:
      return Statement::havoc(slot(S.target())).str(CanonVars);
    }
    return std::string();
  }
};

//===----------------------------------------------------------------------===//
// Hashing and fixed-width little-endian encoding
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

uint64_t fnvBytes(uint64_t H, const void *Data, size_t N) {
  const unsigned char *B = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I)
    H = (H ^ B[I]) * FnvPrime;
  return H;
}

uint64_t fnvU64(uint64_t H, uint64_t V) { return fnvBytes(H, &V, 8); }

uint64_t fnvStr(uint64_t H, const std::string &S) {
  H = fnvU64(H, S.size());
  return fnvBytes(H, S.data(), S.size());
}

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }

void putU32(std::string &B, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  B.append(Buf, 4);
}

void putU64(std::string &B, uint64_t V) {
  char Buf[8];
  std::memcpy(Buf, &V, 8);
  B.append(Buf, 8);
}

void putI64(std::string &B, int64_t V) {
  putU64(B, static_cast<uint64_t>(V));
}

void putStr(std::string &B, const std::string &S) {
  putU32(B, static_cast<uint32_t>(S.size()));
  B.append(S);
}

/// Bounds-checked sequential reader; any overrun latches Failed and makes
/// every later read return zero, so decoders can check once at the end of
/// a section instead of after every field.
struct Reader {
  const std::string &B;
  size_t Pos = 0;
  bool Failed = false;

  explicit Reader(const std::string &Bytes, size_t Start = 0)
      : B(Bytes), Pos(Start) {}

  bool take(void *Out, size_t N) {
    if (Failed || B.size() - Pos < N) {
      Failed = true;
      return false;
    }
    std::memcpy(Out, B.data() + Pos, N);
    Pos += N;
    return true;
  }

  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    take(&V, 4);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    take(&V, 8);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }

  std::string str() {
    uint32_t N = u32();
    if (Failed || N > MaxDecodedStringBytes || B.size() - Pos < N) {
      Failed = true;
      return std::string();
    }
    std::string S(B.data() + Pos, N);
    Pos += N;
    return S;
  }
};

constexpr char Magic[4] = {'T', 'C', 'M', 'C'};
/// magic + version + lasso key + program key + payload length.
constexpr size_t HeaderSize = 4 + 4 + 8 + 8 + 8;

/// Parsed entry envelope (header only; payload/checksum untouched).
struct EntryHeader {
  uint32_t Version = 0;
  uint64_t LassoKey = 0;
  uint64_t ProgramKey = 0;
  uint64_t PayloadSize = 0;
};

bool parseHeader(const std::string &Bytes, EntryHeader &H) {
  if (Bytes.size() < HeaderSize + 8 ||
      std::memcmp(Bytes.data(), Magic, 4) != 0)
    return false;
  Reader R(Bytes, 4);
  H.Version = R.u32();
  H.LassoKey = R.u64();
  H.ProgramKey = R.u64();
  H.PayloadSize = R.u64();
  if (R.Failed || H.PayloadSize != Bytes.size() - HeaderSize - 8)
    return false;
  return true;
}

/// Checksum over everything between the magic and the trailing checksum
/// word (version, keys, payload length, payload).
uint64_t entryChecksum(const std::string &Bytes) {
  return fnvBytes(FnvOffset, Bytes.data() + 4, Bytes.size() - 4 - 8);
}

void putExpr(std::string &B, const LinearExpr &E, Canonicalizer &C,
             VarId Oldrnk, bool &Ok) {
  putU32(B, static_cast<uint32_t>(E.terms().size()));
  for (const LinearExpr::Term &T : E.terms()) {
    if (T.Var == Oldrnk) {
      putU32(B, OldrnkSlot);
    } else if (C.SlotOf.count(T.Var)) {
      putU32(B, C.SlotOf.at(T.Var));
    } else {
      // A certificate over a variable the program's statements never
      // mention has no canonical identity; refuse to serialize.
      Ok = false;
      putU32(B, OldrnkSlot);
    }
    putI64(B, T.Coeff);
  }
  putI64(B, E.constantTerm());
}

bool readExpr(Reader &R, const std::vector<VarId> &VarOfSlot, VarId Oldrnk,
              LinearExpr &Out) {
  uint32_t N = R.u32();
  if (R.Failed || N > MaxDecodedTerms)
    return false;
  LinearExpr E;
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Slot = R.u32();
    int64_t Coeff = R.i64();
    if (R.Failed)
      return false;
    VarId V;
    if (Slot == OldrnkSlot)
      V = Oldrnk;
    else if (Slot < VarOfSlot.size())
      V = VarOfSlot[Slot];
    else
      return false;
    E = E + LinearExpr::scaled(V, Coeff);
  }
  int64_t Constant = R.i64();
  if (R.Failed)
    return false;
  Out = E + LinearExpr::constant(Constant);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shape keys
//===----------------------------------------------------------------------===//

uint64_t ModuleCache::programShapeKey(const Program &P) {
  Canonicalizer C(P);
  uint64_t H = FnvOffset;
  H = fnvU64(H, P.numLocations());
  H = fnvU64(H, P.entry());
  H = fnvU64(H, P.edges().size());
  for (const Program::Edge &E : P.edges()) {
    H = fnvU64(H, E.From);
    H = fnvU64(H, E.To);
    H = fnvStr(H, C.SymStr[E.Sym]);
  }
  return H;
}

uint64_t ModuleCache::lassoShapeKey(const Program &P, const LassoWord &W) {
  Canonicalizer C(P);
  uint64_t H = FnvOffset;
  H = fnvU64(H, W.Stem.size());
  for (Symbol S : W.Stem)
    H = fnvStr(H, C.SymStr[S]);
  H = fnvU64(H, 0x5eb0u); // stem/loop separator
  H = fnvU64(H, W.Loop.size());
  for (Symbol S : W.Loop)
    H = fnvStr(H, C.SymStr[S]);
  return H;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string ModuleCache::serializeModule(const CertifiedModule &M,
                                         const Program &P, uint64_t LassoKey,
                                         uint64_t ProgramKey) {
  if (M.A.numSymbols() != P.numSymbols() ||
      M.Cert.size() != M.A.numStates())
    return std::string();

  Canonicalizer C(P);
  VarId Oldrnk = P.oldrnkVar();
  bool Ok = true;

  std::string Payload;
  // Alphabet: one canonical rendering per program symbol. Self-contained:
  // rebinding needs nothing but the target program.
  putU32(Payload, static_cast<uint32_t>(C.VarOfSlot.size()));
  putU32(Payload, P.numSymbols());
  for (SymbolId S = 0; S < P.numSymbols(); ++S)
    putStr(Payload, C.SymStr[S]);

  putU8(Payload, static_cast<uint8_t>(M.Kind));
  putU8(Payload, M.UniversalState.has_value() ? 1 : 0);
  putU32(Payload, M.UniversalState.value_or(0));
  putExpr(Payload, M.Rank, C, Oldrnk, Ok);

  const Buchi &A = M.A;
  putU32(Payload, A.numStates());
  putU32(Payload, A.numConditions());
  {
    const std::vector<State> &Init = A.initials().elems();
    putU32(Payload, static_cast<uint32_t>(Init.size()));
    for (State S : Init)
      putU32(Payload, S);
  }
  for (State S = 0; S < A.numStates(); ++S)
    putU64(Payload, A.acceptMask(S));
  for (State S = 0; S < A.numStates(); ++S) {
    std::span<const Buchi::Arc> Row = A.arcsFrom(S);
    putU32(Payload, static_cast<uint32_t>(Row.size()));
    for (const Buchi::Arc &Arc : Row) {
      putU32(Payload, Arc.Sym);
      putU32(Payload, Arc.To);
    }
  }

  for (const Predicate &Pred : M.Cert) {
    putU8(Payload, Pred.oldrnkIsInf() ? 1 : 0);
    putU8(Payload, Pred.cube().isContradictory() ? 1 : 0);
    const std::vector<Constraint> &Atoms = Pred.cube().atoms();
    putU32(Payload, static_cast<uint32_t>(Atoms.size()));
    for (const Constraint &Atom : Atoms) {
      putU8(Payload, static_cast<uint8_t>(Atom.rel()));
      putExpr(Payload, Atom.expr(), C, Oldrnk, Ok);
    }
  }
  if (!Ok)
    return std::string();

  std::string Bytes;
  Bytes.reserve(HeaderSize + Payload.size() + 8);
  Bytes.append(Magic, 4);
  putU32(Bytes, ModuleCacheFormatVersion);
  putU64(Bytes, LassoKey);
  putU64(Bytes, ProgramKey);
  putU64(Bytes, Payload.size());
  Bytes.append(Payload);
  // entryChecksum reads [4, size-8): pad with the checksum word's width so
  // writer and reader hash the identical range.
  putU64(Bytes, entryChecksum(Bytes + std::string(8, '\0')));
  return Bytes;
}

bool ModuleCache::deserializeModule(const std::string &Bytes,
                                    const Program &P, CertifiedModule &Out,
                                    uint64_t *LassoKey,
                                    uint64_t *ProgramKey) {
  EntryHeader H;
  if (!parseHeader(Bytes, H) || H.Version != ModuleCacheFormatVersion)
    return false;
  uint64_t Stored;
  std::memcpy(&Stored, Bytes.data() + Bytes.size() - 8, 8);
  if (Stored != entryChecksum(Bytes))
    return false;

  Canonicalizer C(P);
  VarId Oldrnk = P.oldrnkVar();

  Reader R(Bytes, HeaderSize);
  uint32_t NumSlots = R.u32();
  uint32_t AlphabetSize = R.u32();
  if (R.Failed || AlphabetSize != P.numSymbols() ||
      NumSlots > MaxDecodedTerms)
    return false;

  // Rebind: every serialized canonical statement string must name exactly
  // one symbol of the current program. Keys already matched, but the
  // rebinding is re-derived from scratch -- a hash collision must fail
  // here (or in validateModule), never mis-resolve silently.
  std::unordered_map<std::string, SymbolId> CurrentSyms;
  for (SymbolId S = 0; S < P.numSymbols(); ++S)
    CurrentSyms.emplace(C.SymStr[S], S);
  std::vector<SymbolId> SymOf(AlphabetSize);
  for (uint32_t S = 0; S < AlphabetSize; ++S) {
    std::string Str = R.str();
    if (R.Failed)
      return false;
    auto It = CurrentSyms.find(Str);
    if (It == CurrentSyms.end())
      return false;
    SymOf[S] = It->second;
  }
  // Variable slots resolve through the current program's canonical order.
  if (NumSlots > C.VarOfSlot.size())
    return false;

  uint8_t KindRaw = R.u8();
  uint8_t HasUniversal = R.u8();
  uint32_t Universal = R.u32();
  if (R.Failed ||
      KindRaw > static_cast<uint8_t>(ModuleKind::Nondeterministic) ||
      HasUniversal > 1)
    return false;

  LinearExpr Rank;
  if (!readExpr(R, C.VarOfSlot, Oldrnk, Rank))
    return false;

  uint32_t NumStates = R.u32();
  uint32_t NumConditions = R.u32();
  if (R.Failed || NumStates > MaxDecodedStates || NumConditions < 1 ||
      NumConditions > 64)
    return false;
  Buchi A(P.numSymbols(), NumConditions);
  A.addStates(NumStates);
  uint32_t NumInit = R.u32();
  if (R.Failed || NumInit > NumStates)
    return false;
  for (uint32_t I = 0; I < NumInit; ++I) {
    uint32_t S = R.u32();
    if (R.Failed || S >= NumStates)
      return false;
    A.addInitial(S);
  }
  uint64_t FullMask = A.fullMask();
  for (uint32_t S = 0; S < NumStates; ++S) {
    uint64_t Mask = R.u64();
    if (R.Failed || (Mask & ~FullMask) != 0)
      return false;
    A.setAcceptMask(S, Mask);
  }
  for (uint32_t S = 0; S < NumStates; ++S) {
    uint32_t NArcs = R.u32();
    if (R.Failed || NArcs > MaxDecodedArcs)
      return false;
    for (uint32_t I = 0; I < NArcs; ++I) {
      uint32_t Sym = R.u32();
      uint32_t To = R.u32();
      if (R.Failed || Sym >= AlphabetSize || To >= NumStates)
        return false;
      A.addTransition(S, SymOf[Sym], To);
    }
  }

  std::vector<Predicate> Cert;
  Cert.reserve(NumStates);
  for (uint32_t S = 0; S < NumStates; ++S) {
    uint8_t Inf = R.u8();
    uint8_t Contradictory = R.u8();
    uint32_t NAtoms = R.u32();
    if (R.Failed || Inf > 1 || Contradictory > 1 ||
        NAtoms > MaxDecodedAtoms)
      return false;
    Cube Cb = Contradictory ? Cube::contradiction() : Cube();
    Cb.reserve(NAtoms);
    for (uint32_t I = 0; I < NAtoms; ++I) {
      uint8_t Rel = R.u8();
      LinearExpr E;
      if (R.Failed || Rel > static_cast<uint8_t>(RelKind::EQ) ||
          !readExpr(R, C.VarOfSlot, Oldrnk, E))
        return false;
      Cb.add(Constraint::make(std::move(E), static_cast<RelKind>(Rel)));
    }
    Cert.emplace_back(std::move(Cb), Inf == 1);
  }
  if (R.Failed || R.Pos != Bytes.size() - 8)
    return false;

  Out = CertifiedModule(std::move(A));
  Out.Cert = std::move(Cert);
  Out.Rank = std::move(Rank);
  Out.Kind = static_cast<ModuleKind>(KindRaw);
  if (HasUniversal) {
    if (Universal >= NumStates)
      return false;
    Out.UniversalState = Universal;
  } else {
    Out.UniversalState.reset();
  }
  if (LassoKey)
    *LassoKey = H.LassoKey;
  if (ProgramKey)
    *ProgramKey = H.ProgramKey;
  return true;
}

//===----------------------------------------------------------------------===//
// The cache proper
//===----------------------------------------------------------------------===//

ModuleCache::ModuleCache(std::string Dir, size_t MaxBytes)
    : MaxBytes(MaxBytes), DiskDir(std::move(Dir)) {
  if (!DiskDir.empty())
    loadDiskDir();
}

bool ModuleCache::lookupLasso(uint64_t LassoKey, const Program &P,
                              const LassoWord &W, CertifiedModule &Out,
                              ModuleCacheStats &RS) {
  // A degenerate word (no loop) is not an ultimately periodic word at all;
  // acceptsLasso asserts on it, so short-circuit to a miss.
  if (W.Loop.empty()) {
    ++RS.Misses;
    std::lock_guard<std::mutex> Lock(M);
    ++Cumulative.Misses;
    return false;
  }
  std::vector<std::string> Candidates;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = ByLasso.find(LassoKey);
    if (It != ByLasso.end())
      for (EntryList::iterator E : It->second)
        Candidates.push_back(E->Bytes);
  }
  for (const std::string &Bytes : Candidates) {
    CertifiedModule Cand;
    // Validation order is the soundness argument (DESIGN.md section 16):
    // decode+rebind, then the module must still accept this very lasso
    // (guarantees the subtraction makes progress exactly as a fresh
    // generalize would), then the independent Definition 3.1 check.
    if (!deserializeModule(Bytes, P, Cand) || !acceptsLasso(Cand.A, W) ||
        !validateModule(Cand, P).empty()) {
      ++RS.ValidationFailures;
      std::lock_guard<std::mutex> Lock(M);
      ++Cumulative.ValidationFailures;
      continue;
    }
    Out = std::move(Cand);
    ++RS.Hits;
    std::lock_guard<std::mutex> Lock(M);
    ++Cumulative.Hits;
    auto It = ByContent.find(fnvBytes(FnvOffset, Bytes.data(), Bytes.size()));
    if (It != ByContent.end())
      touchLocked(It->second);
    return true;
  }
  ++RS.Misses;
  std::lock_guard<std::mutex> Lock(M);
  ++Cumulative.Misses;
  return false;
}

std::vector<CertifiedModule>
ModuleCache::lookupProgram(uint64_t ProgramKey, const Program &P,
                           ModuleCacheStats &RS) {
  std::vector<std::string> Candidates;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = ByProgram.find(ProgramKey);
    if (It != ByProgram.end())
      for (EntryList::iterator E : It->second)
        Candidates.push_back(E->Bytes);
  }
  std::vector<CertifiedModule> Result;
  uint64_t Failures = 0;
  for (const std::string &Bytes : Candidates) {
    CertifiedModule Cand;
    if (deserializeModule(Bytes, P, Cand) &&
        validateModule(Cand, P).empty())
      Result.push_back(std::move(Cand));
    else
      ++Failures;
  }
  RS.ValidationFailures += Failures;
  RS.Hits += Result.size();
  if (Result.empty())
    ++RS.Misses;
  std::lock_guard<std::mutex> Lock(M);
  Cumulative.ValidationFailures += Failures;
  Cumulative.Hits += Result.size();
  if (Result.empty())
    ++Cumulative.Misses;
  return Result;
}

void ModuleCache::insert(uint64_t LassoKey, uint64_t ProgramKey,
                         const CertifiedModule &Module, const Program &P,
                         ModuleCacheStats &RS) {
  std::string Bytes = serializeModule(Module, P, LassoKey, ProgramKey);
  if (Bytes.empty())
    return;
  if (insertBytes(std::move(Bytes), /*Persist=*/true, /*TrackNew=*/true)) {
    ++RS.Inserts;
    std::lock_guard<std::mutex> Lock(M);
    ++Cumulative.Inserts;
  }
}

bool ModuleCache::insertSerialized(const std::string &Bytes) {
  EntryHeader H;
  if (!parseHeader(Bytes, H) || H.Version != ModuleCacheFormatVersion)
    return false;
  if (!insertBytes(Bytes, /*Persist=*/true, /*TrackNew=*/true))
    return false;
  std::lock_guard<std::mutex> Lock(M);
  ++Cumulative.Inserts;
  return true;
}

std::vector<std::string>
ModuleCache::entriesForProgram(uint64_t ProgramKey) const {
  std::vector<std::string> Result;
  std::lock_guard<std::mutex> Lock(M);
  for (const Entry &E : Entries)
    if (E.ProgramKey == ProgramKey)
      Result.push_back(E.Bytes);
  return Result;
}

std::vector<std::string> ModuleCache::drainNewEntries() {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Result = std::move(NewEntries);
  NewEntries.clear();
  return Result;
}

ModuleCacheStats ModuleCache::totals() const {
  std::lock_guard<std::mutex> Lock(M);
  return Cumulative;
}

void ModuleCache::addTotals(const ModuleCacheStats &S) {
  std::lock_guard<std::mutex> Lock(M);
  Cumulative.Hits += S.Hits;
  Cumulative.Misses += S.Misses;
  Cumulative.ValidationFailures += S.ValidationFailures;
  Cumulative.Inserts += S.Inserts;
}

size_t ModuleCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Entries.size();
}

size_t ModuleCache::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

bool ModuleCache::insertBytes(std::string Bytes, bool Persist,
                              bool TrackNew) {
  EntryHeader H;
  if (!parseHeader(Bytes, H))
    return false;
  uint64_t ContentHash = fnvBytes(FnvOffset, Bytes.data(), Bytes.size());
  {
    std::lock_guard<std::mutex> Lock(M);
    auto Existing = ByContent.find(ContentHash);
    if (Existing != ByContent.end()) {
      touchLocked(Existing->second);
      return false;
    }
    Entries.push_front(Entry{H.LassoKey, H.ProgramKey, ContentHash, Bytes});
    EntryList::iterator It = Entries.begin();
    ByLasso[H.LassoKey].push_back(It);
    ByProgram[H.ProgramKey].push_back(It);
    ByContent.emplace(ContentHash, It);
    TotalBytes += Bytes.size();
    if (TrackNew)
      NewEntries.push_back(Bytes);
    evictLocked();
  }
  if (Persist && !DiskDir.empty())
    persistToDisk(Bytes, ContentHash);
  return true;
}

void ModuleCache::touchLocked(EntryList::iterator It) {
  Entries.splice(Entries.begin(), Entries, It);
}

void ModuleCache::evictLocked() {
  while (TotalBytes > MaxBytes && Entries.size() > 1) {
    EntryList::iterator Victim = std::prev(Entries.end());
    unindexLocked(Victim);
    TotalBytes -= Victim->Bytes.size();
    Entries.erase(Victim);
  }
}

void ModuleCache::unindexLocked(EntryList::iterator It) {
  auto Drop = [&](std::unordered_map<uint64_t,
                                     std::vector<EntryList::iterator>> &Map,
                  uint64_t Key) {
    auto MIt = Map.find(Key);
    if (MIt == Map.end())
      return;
    std::vector<EntryList::iterator> &V = MIt->second;
    V.erase(std::remove(V.begin(), V.end(), It), V.end());
    if (V.empty())
      Map.erase(MIt);
  };
  Drop(ByLasso, It->LassoKey);
  Drop(ByProgram, It->ProgramKey);
  ByContent.erase(It->ContentHash);
}

void ModuleCache::persistToDisk(const std::string &Bytes,
                                uint64_t ContentHash) const {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(DiskDir, Ec);
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx",
                static_cast<unsigned long long>(ContentHash));
  fs::path Final = fs::path(DiskDir) / (std::string(Name) + ".tcmc");
  if (fs::exists(Final, Ec))
    return;
  fs::path Tmp = fs::path(DiskDir) / (std::string(".tmp.") + Name);
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out) {
      Out.close();
      fs::remove(Tmp, Ec);
      return;
    }
  }
  fs::rename(Tmp, Final, Ec);
  if (Ec)
    fs::remove(Tmp, Ec);
}

void ModuleCache::loadDiskDir() {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(DiskDir, Ec);
  // Deterministic load order: sort the file names so the LRU order (and
  // with it eviction and lookup preference) is stable across runs.
  std::vector<fs::path> Files;
  for (const fs::directory_entry &DE :
       fs::directory_iterator(DiskDir, Ec)) {
    if (Ec)
      break;
    if (DE.path().extension() == ".tcmc")
      Files.push_back(DE.path());
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files) {
    std::ifstream In(File, std::ios::binary);
    if (!In) {
      ++LoadSkipped;
      continue;
    }
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    // Only the envelope is checked here; payload corruption surfaces at
    // lookup time as a per-run validation failure, which is the counter
    // the acceptance test watches.
    EntryHeader H;
    if (!parseHeader(Bytes, H) || H.Version != ModuleCacheFormatVersion) {
      ++LoadSkipped;
      continue;
    }
    insertBytes(std::move(Bytes), /*Persist=*/false, /*TrackNew=*/false);
  }
}
