//===- server/Server.cpp - termcheckd session and transport layer ---------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "support/Error.h"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace termcheck;
using namespace termcheck::server;

//===----------------------------------------------------------------------===//
// Session logic
//===----------------------------------------------------------------------===//

bool termcheck::server::handleRequestLine(Scheduler &S,
                                          const ProtocolLimits &L,
                                          std::string_view Line,
                                          const LineSink &Write) {
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.remove_suffix(1);
  if (Line.find_first_not_of(" \t") == std::string_view::npos)
    return false; // blank lines are keep-alive noise, not requests

  Request R;
  try {
    R = parseRequest(Line, L);
  } catch (const EngineError &E) {
    // Best-effort id recovery: a cap breach on a well-formed line (an
    // oversized program, say) comes back addressed to its job so batch
    // clients can account for it; a line too broken to carry an id gets
    // the anonymous error form.
    std::string Id;
    json::Value Doc;
    json::ParseLimits JL;
    JL.MaxDepth = L.MaxJsonDepth;
    JL.MaxBytes = L.MaxLineBytes;
    if (json::parse(Line, Doc, JL) && Doc.isObject())
      if (const json::Value *IdV = Doc.find("id"))
        if (IdV->isString() &&
            (L.MaxIdBytes == 0 || IdV->Str.size() <= L.MaxIdBytes))
          Id = IdV->Str;
    if (Id.empty()) {
      Write(protocolErrorLine(E.what()));
    } else {
      RejectReason Reason = E.kind() == ErrorKind::ResourceExhausted
                                ? RejectReason::OversizedProgram
                                : RejectReason::MalformedRequest;
      Write(rejectedLine(Id, Reason, E.what()));
    }
    return false;
  }

  switch (R.O) {
  case Request::Op::Stats:
    Write(statsLine(S.stats()));
    return false;
  case Request::Op::Health:
    Write(healthLine(S.health()));
    return false;
  case Request::Op::Cancel:
    Write(cancelAckLine(R.Id, S.cancel(R.Id)));
    return false;
  case Request::Op::Drain:
    Write(drainingLine());
    S.beginDrain(/*Hard=*/false);
    return true;
  case Request::Op::Submit:
    break;
  }

  JobSpec Spec;
  Spec.Id = R.Id;
  Spec.ProgramText = std::move(R.Program);
  Spec.Source = std::move(R.Source);
  Spec.Opts = R.Opts;
  size_t Depth = 0;
  Scheduler::Admission A = S.submit(
      std::move(Spec), [Write](JobOutcome O) { Write(resultLine(O)); },
      &Depth);
  switch (A) {
  case Scheduler::Admission::Accepted:
    Write(acceptedLine(R.Id, Depth));
    break;
  case Scheduler::Admission::QueueFull:
    Write(rejectedLine(R.Id, RejectReason::QueueFull,
                       "admission queue is full; resubmit after a result "
                       "frees a slot"));
    break;
  case Scheduler::Admission::DuplicateId:
    Write(rejectedLine(R.Id, RejectReason::DuplicateId,
                       "a job with this id is already in flight"));
    break;
  case Scheduler::Admission::Draining:
    Write(rejectedLine(R.Id, RejectReason::Draining,
                       "server is draining; submit to a fresh instance"));
    break;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

namespace {

/// Thread-safe flushing sink over an ostream (the stdio transport). Job
/// completions write through it from pool workers while the session
/// thread reads; serveStdio's awaitIdle() guarantees the stream is quiet
/// before the function returns.
struct StreamSink {
  std::mutex M;
  std::ostream &OS;
  explicit StreamSink(std::ostream &OS) : OS(OS) {}
  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(M);
    OS << Line;
    OS.flush();
  }
};

/// One socket connection. Shared between the reader thread and every
/// completion callback its submissions wired up; `Closed` keeps a result
/// that outlives the connection from writing into a recycled fd.
struct Conn {
  int Fd;
  std::mutex M;
  bool Closed = false;
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() { closeFd(); }
  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(M);
    if (Closed)
      return;
    const char *P = Line.data();
    size_t N = Line.size();
    while (N != 0) {
      ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
      if (W <= 0)
        return; // peer gone; drop the rest of the line
      P += static_cast<size_t>(W);
      N -= static_cast<size_t>(W);
    }
  }
  void closeFd() {
    std::lock_guard<std::mutex> Lock(M);
    if (!Closed) {
      ::close(Fd);
      Closed = true;
    }
  }
};

void closeIfOpen(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Bounded line read for the stdio transport, mirroring the socket
/// transport's MaxLineBytes enforcement (std::getline would buffer a
/// newline-free stream without bound). A line past the cap is consumed
/// and discarded up to its newline in O(1) memory and reported through
/// \p Overlong so the session can answer with a structured error.
/// \returns false only at end of stream with nothing read.
bool boundedGetline(std::istream &In, std::string &Line, size_t Cap,
                    bool &Overlong) {
  Line.clear();
  Overlong = false;
  bool Any = false;
  char C;
  while (In.get(C)) {
    Any = true;
    if (C == '\n')
      return true;
    if (Overlong)
      continue; // discarding to the newline
    if (Cap != 0 && Line.size() >= Cap) {
      Overlong = true;
      Line.clear();
    } else {
      Line.push_back(C);
    }
  }
  return Any;
}

} // namespace

struct Server::Listeners {
  int UnixFd = -1;
  std::string UnixPath;

  /// stopListeners runs its body once; a concurrent second caller waits
  /// for the first to finish.
  std::once_flag StopOnce;
  std::mutex M;
  bool Stopping = false;
  /// startListeners succeeded; serveStdio parks on stdin EOF instead of
  /// draining while this is set.
  bool Active = false;
  /// Someone asked for a drain (in-band on any transport, or drain());
  /// wakes the parked serveStdio.
  bool DrainRequested = false;
  std::condition_variable DrainCv;
  std::vector<std::shared_ptr<Conn>> Conns;
  std::thread AcceptThread;
  std::vector<std::thread> ConnThreads;
};

Server::Server(const ServerOptions &O)
    : Opts(O), Sched(O.Sched), L(std::make_unique<Listeners>()) {}

Server::~Server() { stopListeners(); }

void Server::noteDrainRequested() {
  {
    std::lock_guard<std::mutex> Lock(L->M);
    L->DrainRequested = true;
  }
  L->DrainCv.notify_all();
}

void Server::drain(bool Hard) {
  noteDrainRequested();
  Sched.beginDrain(Hard);
  Sched.awaitIdle();
}

int Server::serveStdio(std::istream &In, std::ostream &Out) {
  auto Sink = std::make_shared<StreamSink>(Out);
  LineSink Write = [Sink](const std::string &Ln) { Sink->write(Ln); };

  std::string Line;
  bool InBandDrain = false;
  bool Overlong = false;
  while (boundedGetline(In, Line, Opts.Limits.MaxLineBytes, Overlong)) {
    if (Overlong) {
      Write(protocolErrorLine("request line exceeds " +
                              std::to_string(Opts.Limits.MaxLineBytes) +
                              " bytes"));
      continue;
    }
    if (handleRequestLine(Sched, Opts.Limits, Line, Write)) {
      InBandDrain = true;
      break;
    }
  }
  if (InBandDrain)
    noteDrainRequested();

  // A socket-only deployment redirects stdin from /dev/null; EOF there
  // must not take the listener down. Park until a drain is actually
  // requested (in-band on a connection, or drain() from the signal path).
  {
    std::unique_lock<std::mutex> Lock(L->M);
    if (L->Active && !L->Stopping)
      L->DrainCv.wait(Lock, [this] { return L->DrainRequested; });
  }

  // EOF or in-band drain: stop admitting, let in-flight jobs finish, and
  // only then say so -- awaitIdle() orders `drained` after every result.
  Sched.beginDrain(/*Hard=*/false);
  Sched.awaitIdle();
  Write(drainedLine());
  return 0;
}

bool Server::startListeners(std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + ": " + std::strerror(errno);
    closeIfOpen(L->UnixFd);
    return false;
  };

  if (!Opts.UnixSocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixSocketPath.size() >= sizeof(Addr.sun_path)) {
      if (Error)
        *Error = "unix socket path too long: " + Opts.UnixSocketPath;
      return false;
    }
    std::strncpy(Addr.sun_path, Opts.UnixSocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    L->UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (L->UnixFd < 0)
      return Fail("socket(AF_UNIX)");
    ::unlink(Opts.UnixSocketPath.c_str()); // replace a stale socket file
    if (::bind(L->UnixFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return Fail("bind(" + Opts.UnixSocketPath + ")");
    if (::listen(L->UnixFd, 64) != 0)
      return Fail("listen(" + Opts.UnixSocketPath + ")");
    L->UnixPath = Opts.UnixSocketPath;
    L->AcceptThread = std::thread([this, Fd = L->UnixFd] {
      for (;;) {
        int ConnFd = ::accept(Fd, nullptr, nullptr);
        if (ConnFd < 0) {
          if (errno == EINTR)
            continue;
          return; // listener closed by stopListeners
        }
        auto C = std::make_shared<Conn>(ConnFd);
        std::lock_guard<std::mutex> Lock(L->M);
        if (L->Stopping)
          return; // Conn dtor closes the fd
        L->Conns.push_back(C);
        L->ConnThreads.emplace_back([this, C] {
          LineSink Write = [C](const std::string &Ln) { C->write(Ln); };
          std::string Buf;
          char Chunk[4096];
          bool Drain = false;
          const size_t Cap = Opts.Limits.MaxLineBytes;
          while (!Drain) {
            ssize_t N = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
            if (N <= 0)
              break;
            Buf.append(Chunk, static_cast<size_t>(N));
            size_t Pos;
            while (!Drain && (Pos = Buf.find('\n')) != std::string::npos) {
              std::string Line = Buf.substr(0, Pos);
              Buf.erase(0, Pos + 1);
              Drain = handleRequestLine(Sched, Opts.Limits, Line, Write);
            }
            // A "line" that keeps growing past the cap with no newline in
            // sight is an attack or a broken client either way; answer
            // once and hang up rather than buffering without bound.
            if (!Drain && Cap != 0 && Buf.size() > Cap) {
              Write(protocolErrorLine(
                  "request line exceeds " + std::to_string(Cap) +
                  " bytes; closing connection"));
              break;
            }
          }
          if (Drain) {
            noteDrainRequested();
            Sched.awaitIdle();
            Write(drainedLine());
          }
          C->closeFd();
        });
      }
    });
  }
  {
    std::lock_guard<std::mutex> Lock(L->M);
    L->Active = true;
  }
  return true;
}

void Server::stopListeners() {
  // A signal drain of a socket-only daemon calls this from the drain
  // helper and from the main thread at once; without the once-guard both
  // would close the same fds and join the same threads.
  std::call_once(L->StopOnce, [this] { stopListenersOnce(); });
}

void Server::stopListenersOnce() {
  {
    std::lock_guard<std::mutex> Lock(L->M);
    L->Stopping = true;
    // A serveStdio parked on stdin-EOF must not outlive the listener.
    L->DrainRequested = true;
  }
  L->DrainCv.notify_all();
  // shutdown() before close(): on Linux, closing a listening fd does not
  // wake a thread blocked in accept() on it, but shutdown() does. After
  // joining the accept loop no new connection threads can appear.
  if (L->UnixFd >= 0)
    ::shutdown(L->UnixFd, SHUT_RDWR);
  closeIfOpen(L->UnixFd);
  if (L->AcceptThread.joinable())
    L->AcceptThread.join();
  // Unblock connection readers, then join them.
  std::vector<std::shared_ptr<Conn>> Conns;
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(L->M);
    Conns.swap(L->Conns);
    Threads.swap(L->ConnThreads);
  }
  for (const auto &C : Conns) {
    std::lock_guard<std::mutex> Lock(C->M);
    if (!C->Closed)
      ::shutdown(C->Fd, SHUT_RDWR);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  if (!L->UnixPath.empty()) {
    ::unlink(L->UnixPath.c_str());
    L->UnixPath.clear();
  }
}
