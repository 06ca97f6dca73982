// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Flight recorder: a fixed-size ring of the most recent index
// operations (oid, op, latency, status, I/O). Recording takes no lock —
// one fetch_add to claim a ticket, a CAS that marks the ticket's slot
// busy, relaxed stores of the fields, then a release store of the
// ticket — so the hot path pays a few nanoseconds. Only a writer that
// laps the ring onto a slot an older writer is still filling waits, for
// that fill only; a writer whose slot already holds a newer ticket drops
// its record. A dump taken while writers race skips the (few) slots
// being filled at that instant: the dumper validates each slot's ticket
// and drops torn ones.
//
// The point of the recorder is the dump: when the process dies — fatal
// Status path, REXP_CHECK failure, std::terminate, SIGTERM/SIGINT — the
// last `capacity` operations are written as one JSON object, giving the
// repair tooling (PR 6) a "what happened right before corruption"
// artifact. DumpToFd is async-signal-safe: it formats integers by hand
// into a stack buffer and uses write(2) only — no malloc, no stdio.
//
// Dump shape (version 1):
//   {"v":1,"reason":"...","pid":N,"capacity":N,"recorded":N,"dropped":N,
//    "events":[{"seq":N,"wall_ms":N,"op":"insert","oid":N,
//               "latency_us":N,"status":N,"io":N}, ...]}
// `events` is oldest-first; `dropped` counts events that fell off the
// ring before the dump; `status` is the numeric StatusCode (0 = OK);
// `latency_us` is a whole number of microseconds; `wall_ms` is
// milliseconds since the recorder was constructed.
//
// With REXP_NO_TELEMETRY, Record compiles to nothing and dumps contain
// zero events (the dump machinery itself stays, so fatal paths still
// produce a parseable artifact).

#ifndef REXP_OBS_FLIGHT_RECORDER_H_
#define REXP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace rexp::obs {

// Operation kinds recorded; serialized by name in dumps.
enum class FlightOp : uint8_t {
  kOther = 0,
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
  kSearch = 4,
  kNn = 5,
  kGroupUpdate = 6,
  kCommit = 7,
  kBulkLoad = 8,
};

const char* FlightOpName(FlightOp op);

class FlightRecorder {
 public:
  // `capacity` is rounded up to a power of two (min 64).
  explicit FlightRecorder(size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Takes no lock; callable from any thread. Gated on
  // telemetry::Enabled().
  void Record(FlightOp op, uint64_t oid, double latency_us, StatusCode code,
              uint64_t io);

  // Total operations ever recorded (>= what the ring still holds).
  uint64_t recorded() const {
#ifdef REXP_NO_TELEMETRY
    return 0;
#else
    return next_.load(std::memory_order_relaxed);
#endif
  }

  size_t capacity() const { return capacity_; }

  // Writes the dump JSON to `fd`. Async-signal-safe (no allocation, no
  // stdio, no locks — slots whose ticket is torn mid-write are skipped).
  void DumpToFd(int fd, const char* reason) const;

  // Convenience: creates/truncates `path` and dumps into it. Not
  // signal-safe (open may allocate); fatal-hook paths precompute the fd
  // or use DumpToFile from non-signal contexts only.
  Status DumpToFile(const std::string& path, const char* reason) const;

 private:
  // A seqlock per slot. `state` is (ticket << 1) | busy, where ticket ==
  // claim index + 1 (0 = never written). A writer CASes an idle state
  // holding an older ticket to its own ticket with the busy bit set, so
  // no two writers fill one slot at once and none publishes over a newer
  // ticket; it clears the bit with a release store after the fields.
  // The fields are relaxed atomics: the dumper reads them racily and
  // re-checks `state` afterwards, dropping the slot on mismatch.
  struct Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<uint64_t> oid{0};
    std::atomic<uint32_t> wall_ms{0};     // Since recorder construction.
    std::atomic<uint32_t> latency_us{0};  // Saturated at ~71 min.
    std::atomic<uint32_t> io{0};
    std::atomic<uint8_t> op{0};
    std::atomic<uint8_t> status{0};
  };
  // The dumper runs in signal handlers: every field must be lock-free.
  static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                std::atomic<uint32_t>::is_always_lock_free &&
                std::atomic<uint8_t>::is_always_lock_free);

  size_t capacity_;  // Power of two.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_;
};

// The process-wide recorder the trees feed and the fatal hooks dump.
FlightRecorder& GlobalFlightRecorder();

// Installs the fatal-path dump hooks:
//   * a std::terminate handler (chains any previous handler),
//   * SIGTERM/SIGINT handlers (dump, restore default, re-raise),
//   * the REXP_CHECK failure hook (common/check.h).
// The dump lands at $REXP_FLIGHT_DIR/flight_recorder.<pid>.json (cwd when
// the variable is unset); the path is resolved at install time so the
// signal path does no allocation. Idempotent; thread-safe.
void InstallFlightRecorderDumpHandlers();

// Dumps the global recorder to the precomputed install-time path (or
// $REXP_FLIGHT_DIR/flight_recorder.<pid>.json resolved now if the
// handlers were never installed). Used by rexp_fsck on findings so a
// corrupt index leaves the recent-op context next to the fsck report.
// Returns the path written, or empty on failure.
std::string DumpFlightRecorderNow(const char* reason);

}  // namespace rexp::obs

#endif  // REXP_OBS_FLIGHT_RECORDER_H_
