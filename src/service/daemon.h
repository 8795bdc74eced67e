// CheckpointDaemon: the paper's "snapshots as a system service" taken to its
// process boundary — a network daemon hosting a ServicePool<SolverService>
// fleet over one shared PageStore, serving remote tenants through the
// transport-agnostic wire API (src/net/protocol.h) on a Unix-domain or TCP
// loopback socket.
//
// Tenancy model. Each accepted connection is one *tenant*: it opens sessions
// (each session pins one pool service, drawn from a free list and recycled on
// close/disconnect), receives opaque u64 tokens for solved problems, and is
// metered against a per-tenant snapshot byte budget. Tokens and the
// Checkpoint handles behind them never leave the daemon.
//
// Codec reuse — the daemon never re-encodes solver payloads. Every pool
// service is booted once, at daemon start, with an EMPTY root problem; a
// tenant's SolveRoot is an ExtendEncoded from that pristine root and Extend
// is an ExtendEncoded from the named parent, with the tenant's
// EncodeSolverRequest bytes routed to the guest decoder verbatim. The same
// byte string therefore produces the same outcome in-process and remotely
// (the parity the loopback tests pin down), and malformed payloads are
// rejected by the same hardened guest decoder on both paths.
//
// Budgets. PageStore accounting is store-wide, so the daemon meters tenants
// itself: each solve job samples the service's pages_materialized counter
// around the call (race-free — a session is thread-affine and its jobs run
// serially on its worker) and charges the delta, in bytes, to the token it
// produced; Release refunds the token's charge. Admission compares *settled*
// charges against the budget, so a tenant can overshoot by at most
// max_inflight × one job's footprint — bounded staleness instead of a
// cross-thread accounting path.
//
// Backpressure. Per tenant, at most `max_inflight_per_tenant` solve jobs are
// admitted at once; the connection's reader thread simply stops reading
// frames until the writer retires replies, so a flooding tenant is throttled
// by TCP/AF_UNIX flow control while other tenants' readers run unimpeded.
// `max_inflight_observed` in TenantStats makes the bound assertable in tests.
//
// Threading: one accept thread; per connection a reader thread (frame parse,
// admission, job submission) and a writer thread (retires replies in request
// order — responses to one tenant are never reordered). Stop() shuts down
// the listener and every connection socket, joins all threads, then tears
// down the fleet; it is idempotent and runs from the destructor.

#ifndef LWSNAP_SRC_SERVICE_DAEMON_H_
#define LWSNAP_SRC_SERVICE_DAEMON_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/service/pool.h"
#include "src/solver/cnf.h"
#include "src/solver/service.h"
#include "src/util/status.h"

namespace lw {

struct CheckpointDaemonOptions {
  // Fleet width = the number of concurrently open sessions the daemon can
  // host (each session pins one pool service).
  int num_services = 4;

  // Per-service template (arena/mailbox sizing, engine selection, solver
  // knobs). The fleet shares one store: `service.tuning.store` when set,
  // otherwise one built from `service.tuning.store_options` (ServicePool).
  // `service.tuning.snapshot_byte_budget` is ignored here — remote budgets
  // are per-tenant, below.
  SolverServiceOptions service;

  // Default per-tenant snapshot byte budget (0 = unlimited). A tenant's
  // Hello may request a different budget; requests are clamped to
  // `max_budget_bytes` when that is nonzero.
  uint64_t default_budget_bytes = 0;
  uint64_t max_budget_bytes = 0;

  // Admission cap: solve jobs in flight per tenant before its reader stops
  // reading frames.
  uint32_t max_inflight_per_tenant = 8;
};

namespace internal {
struct DaemonConnection;
}  // namespace internal

class CheckpointDaemon {
 public:
  // Boots the fleet (every service parks an empty-root checkpoint), binds the
  // listener, and starts accepting. The Unix variant unlinks any stale socket
  // file at `path`; the TCP variant binds 127.0.0.1 (port 0 = ephemeral, see
  // port()).
  static Result<std::unique_ptr<CheckpointDaemon>> StartUnix(const std::string& path,
                                                             CheckpointDaemonOptions options);
  static Result<std::unique_ptr<CheckpointDaemon>> StartTcp(uint16_t port,
                                                            CheckpointDaemonOptions options);

  ~CheckpointDaemon();

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  // Stops accepting, severs every connection, joins all threads, releases the
  // empty roots, and destroys the fleet. Idempotent.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  const std::string& path() const { return listener_.path(); }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_dropped = 0;  // framing violations / disconnects
  };
  Stats stats() const;

  const std::shared_ptr<PageStore>& store() const { return pool_->store(); }

 private:
  friend struct internal::DaemonConnection;

  explicit CheckpointDaemon(CheckpointDaemonOptions options);

  static Result<std::unique_ptr<CheckpointDaemon>> Start(Result<Listener> listener,
                                                         CheckpointDaemonOptions options);
  Status BootFleet();
  void AcceptLoop();

  // Session free list (indices into the pool).
  bool AcquireService(int* service);
  void ReturnService(int service);

  CheckpointDaemonOptions options_;
  Cnf empty_root_;  // the pristine base every service boots with
  std::unique_ptr<ServicePool<SolverService>> pool_;
  std::vector<Checkpoint> roots_;  // per-service empty-root handle

  std::mutex free_mu_;
  std::vector<int> free_services_;

  Listener listener_;
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<internal::DaemonConnection>> connections_;
  uint64_t connections_accepted_ = 0;
  uint64_t connections_dropped_ = 0;

  bool stopped_ = false;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SERVICE_DAEMON_H_
