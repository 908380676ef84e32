//===- server/Server.h - termcheckd session and transport layer *- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front half of `termcheckd`: sessions speaking the NDJSON protocol
/// (server/Protocol.h) over two transports -- the process's stdin/stdout,
/// and an optional Unix-domain socket serving any number of concurrent
/// connections -- both multiplexed onto ONE Scheduler
/// (server/Scheduler.h), so admission control and the job pool are global
/// across transports.
///
/// The session logic itself is one pure-ish function, handleRequestLine():
/// request line in, response lines out through a thread-safe sink (job
/// results arrive later, from pool workers, through the same sink). The
/// protocol unit tests drive it directly, with no sockets anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SERVER_SERVER_H
#define TERMCHECK_SERVER_SERVER_H

#include "server/Scheduler.h"

#include <functional>
#include <iosfwd>

namespace termcheck {
namespace server {

/// A thread-safe line sink: called with one complete response line
/// (terminated by '\n') from session threads AND from pool workers
/// delivering job results; implementations serialize and flush.
using LineSink = std::function<void(const std::string &)>;

/// Handles one request line against \p S, emitting response lines through
/// \p Write. A submit wires the job's completion to \p Write too (the
/// `result` line arrives whenever the job finishes). \returns true when
/// the line was a drain request -- the transport should stop reading,
/// await idle, and emit drainedLine().
bool handleRequestLine(Scheduler &S, const ProtocolLimits &L,
                       std::string_view Line, const LineSink &Write);

struct ServerOptions {
  SchedulerConfig Sched;
  ProtocolLimits Limits;
  /// Unix-domain listener path ("" = none). An existing socket file at
  /// the path is replaced.
  std::string UnixSocketPath;
};

/// The daemon: one scheduler, N transports.
class Server {
public:
  explicit Server(const ServerOptions &O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Serves the protocol on \p In / \p Out until EOF or an in-band drain
  /// request, then drains gracefully and writes the `drained` line.
  /// Blocking; returns the process exit code (0).
  ///
  /// When the listener is running, EOF on \p In does NOT start the drain:
  /// a socket-only deployment redirects stdin from /dev/null and the
  /// daemon keeps serving until a drain arrives in-band (any transport)
  /// or through drain().
  int serveStdio(std::istream &In, std::ostream &Out);

  /// Opens the configured Unix-socket listener and starts its accept
  /// loop. \returns false (with \p Error set) when binding failed.
  bool startListeners(std::string *Error = nullptr);

  /// Closes the listener and all open connections; joins their threads.
  /// Runs once: a concurrent or later call waits for the first one to
  /// finish and then returns. The destructor calls it.
  void stopListeners();

  /// Drains the scheduler (graceful by default, hard on demand) and
  /// blocks until every in-flight job completed. The signal path of
  /// termcheckd: first SIGINT/SIGTERM calls drain(false), a second one
  /// drain(true).
  void drain(bool Hard);

  Scheduler &scheduler() { return Sched; }
  const ServerOptions &options() const { return Opts; }

private:
  struct Listeners; // POSIX fds + threads, hidden from the header

  /// Wakes a serveStdio call parked on stdin-EOF-with-listeners (see
  /// serveStdio); called by drain() and by any transport that saw an
  /// in-band drain request.
  void noteDrainRequested();
  /// The body of stopListeners.
  void stopListenersOnce();

  ServerOptions Opts;
  Scheduler Sched;
  std::unique_ptr<Listeners> L;
};

} // namespace server
} // namespace termcheck

#endif // TERMCHECK_SERVER_SERVER_H
