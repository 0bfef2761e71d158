// Open-loop load generator for the serve workload phase.
//
// Requests are due on a fixed schedule, whatever the server does:
// independent users, not waiting callers. The schedule is a seeded
// Poisson process (exponential gaps), so arrivals do not phase-lock with
// the batcher's flush timer the way evenly spaced ones would. At
// most one request per connection is in flight, so when every connection
// is busy the due requests queue on the client side; latency is timed
// from the due time, so that wait counts against the server.
#ifndef ERLB_ERBENCH_SERVE_LOAD_H_
#define ERLB_ERBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "er/entity.h"
#include "er/match_result.h"
#include "proc/wire.h"
#include "trace.h"

namespace erbench {

/// One client connection to the server; the caller closes `fd`.
struct Connection {
  int fd = -1;
  erlb::proc::FrameParser parser;
};

struct LoadRequest {
  enum class Kind { kProbe, kInsert, kRemove };
  Kind kind = Kind::kProbe;
  /// Due time, relative to the start of the run.
  int64_t due_offset_ns = 0;
  /// The probe, or the record to insert.
  erlb::er::Entity entity;
  /// kRemove: the id to remove and the index of the request inserting it
  /// (the remove is held until that insert was acknowledged).
  uint64_t remove_id = 0;
  size_t insert_index = 0;
  /// Keep the probe's answer for the reference re-check.
  bool sampled = false;
};

struct LoadOutcome {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  /// The sender was idle and slept until the due time (so send - due is
  /// the generator's own lateness, not queueing).
  bool slept = false;
  /// Not sent: the run was aborted first (see RunOpenLoop).
  bool skipped = false;
  erlb::er::MatchResult answer;  // sampled probes only
};

/// Sends `requests` at their due times over `connections`, one sender
/// thread per connection, and returns one outcome per request (in
/// request order). When `abort_late_ns` > 0, a request that could not
/// be sent within that long after its due time aborts the run: it and
/// every request not yet sent are skipped. Spans (one per request,
/// children of `parent_span`) go to `tracer` when it is enabled.
std::vector<LoadOutcome> RunOpenLoop(std::vector<Connection>* connections,
                                     const std::vector<LoadRequest>& requests,
                                     int64_t abort_late_ns,
                                     Tracer* tracer, uint64_t parent_span);

}  // namespace erbench

#endif  // ERLB_ERBENCH_SERVE_LOAD_H_
