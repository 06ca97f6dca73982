// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "obs/flight_recorder.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>  // std-mutex-ok: once_flag/call_once only, no locks.
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/check.h"
#include "obs/trace.h"

namespace rexp::obs {

namespace {

// ---- Async-signal-safe formatting into a caller-provided buffer. ----
// No allocation, no stdio, no locale. Each helper returns the number of
// bytes appended (never more than the remaining space).

size_t AppendRaw(char* buf, size_t cap, size_t pos, const char* s) {
  size_t n = std::strlen(s);
  if (pos + n > cap) n = cap - pos;
  std::memcpy(buf + pos, s, n);
  return n;
}

size_t AppendU64(char* buf, size_t cap, size_t pos, uint64_t v) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  if (pos + n > cap) return 0;
  for (size_t i = 0; i < n; ++i) buf[pos + i] = digits[n - 1 - i];
  return n;
}

// Writes `len` bytes to `fd`, retrying on EINTR / short writes.
void WriteAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, buf + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Best-effort: a failing dump must not recurse into checks.
    }
    off += static_cast<size_t>(n);
  }
}

// A small append buffer flushed to the fd when full; keeps the number of
// write(2) calls per dump low without any allocation.
struct DumpBuffer {
  int fd;
  char data[4096];
  size_t pos = 0;

  explicit DumpBuffer(int fd_in) : fd(fd_in) {}
  ~DumpBuffer() { FlushBuf(); }

  void FlushBuf() {
    WriteAll(fd, data, pos);
    pos = 0;
  }
  void Raw(const char* s) {
    if (pos + std::strlen(s) > sizeof(data)) FlushBuf();
    pos += AppendRaw(data, sizeof(data), pos, s);
  }
  void U64(uint64_t v) {
    if (pos + 20 > sizeof(data)) FlushBuf();
    pos += AppendU64(data, sizeof(data), pos, v);
  }
};

size_t RoundUpPow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* FlightOpName(FlightOp op) {
  switch (op) {
    case FlightOp::kInsert:
      return "insert";
    case FlightOp::kDelete:
      return "delete";
    case FlightOp::kUpdate:
      return "update";
    case FlightOp::kSearch:
      return "search";
    case FlightOp::kNn:
      return "nn";
    case FlightOp::kGroupUpdate:
      return "group_update";
    case FlightOp::kCommit:
      return "commit";
    case FlightOp::kBulkLoad:
      return "bulk_load";
    case FlightOp::kOther:
      break;
  }
  return "other";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      slots_(new Slot[capacity_]),
      epoch_(std::chrono::steady_clock::now()) {}

void FlightRecorder::Record(FlightOp op, uint64_t oid, double latency_us,
                            StatusCode code, uint64_t io) {
#ifdef REXP_NO_TELEMETRY
  (void)op;
  (void)oid;
  (void)latency_us;
  (void)code;
  (void)io;
#else
  if (!telemetry::Enabled()) return;
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) & (capacity_ - 1)];
  const uint64_t busy = (ticket << 1) | 1;
  uint64_t state = slot.state.load(std::memory_order_relaxed);
  for (;;) {
    if ((state >> 1) >= ticket) return;  // A newer record owns the slot.
    if ((state & 1) != 0) {
      // An older writer lapped by the ring is still filling the slot.
      std::this_thread::yield();
      state = slot.state.load(std::memory_order_relaxed);
    } else if (slot.state.compare_exchange_weak(state, busy,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      break;  // Acquire: the previous owner's field stores come first.
    }
  }
  // Orders the busy mark before the field stores for a concurrent dump.
  std::atomic_thread_fence(std::memory_order_release);
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - epoch_)
                        .count();
  constexpr uint32_t kU32Max = std::numeric_limits<uint32_t>::max();
  const double latency = std::min(latency_us, double{kU32Max});
  slot.oid.store(oid, std::memory_order_relaxed);
  slot.wall_ms.store(static_cast<uint32_t>(std::min<int64_t>(wall, kU32Max)),
                     std::memory_order_relaxed);
  slot.latency_us.store(latency <= 0 ? 0u : static_cast<uint32_t>(latency),
                        std::memory_order_relaxed);
  slot.io.store(static_cast<uint32_t>(std::min<uint64_t>(io, kU32Max)),
                std::memory_order_relaxed);
  slot.op.store(static_cast<uint8_t>(op), std::memory_order_relaxed);
  slot.status.store(static_cast<uint8_t>(code), std::memory_order_relaxed);
  slot.state.store(ticket << 1, std::memory_order_release);
#endif
}

void FlightRecorder::DumpToFd(int fd, const char* reason) const {
  DumpBuffer out(fd);
  const uint64_t total = next_.load(std::memory_order_acquire);
  const uint64_t held = std::min<uint64_t>(total, capacity_);
  const uint64_t first = total - held;

  out.Raw("{\"v\":1,\"reason\":\"");
  out.Raw(reason == nullptr ? "unknown" : reason);
  out.Raw("\",\"pid\":");
  out.U64(static_cast<uint64_t>(::getpid()));
  out.Raw(",\"capacity\":");
  out.U64(capacity_);
  out.Raw(",\"recorded\":");
  out.U64(total);
  out.Raw(",\"dropped\":");
  out.U64(first);
  out.Raw(",\"events\":[");

  bool any = false;
  for (uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = slots_[seq & (capacity_ - 1)];
    const uint64_t published = (seq + 1) << 1;
    if (slot.state.load(std::memory_order_acquire) != published) continue;
    // Copy fields, then re-validate: a writer lapping us mid-read leaves
    // the state changed and we drop the torn slot.
    const uint64_t oid = slot.oid.load(std::memory_order_relaxed);
    const uint32_t wall_ms = slot.wall_ms.load(std::memory_order_relaxed);
    const uint32_t latency_us = slot.latency_us.load(std::memory_order_relaxed);
    const uint32_t io = slot.io.load(std::memory_order_relaxed);
    const uint8_t op = slot.op.load(std::memory_order_relaxed);
    const uint8_t status = slot.status.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.state.load(std::memory_order_relaxed) != published) continue;

    if (any) out.Raw(",");
    any = true;
    out.Raw("{\"seq\":");
    out.U64(seq);
    out.Raw(",\"wall_ms\":");
    out.U64(wall_ms);
    out.Raw(",\"op\":\"");
    out.Raw(FlightOpName(static_cast<FlightOp>(op)));
    out.Raw("\",\"oid\":");
    out.U64(oid);
    out.Raw(",\"latency_us\":");
    out.U64(latency_us);
    out.Raw(",\"status\":");
    out.U64(status);
    out.Raw(",\"io\":");
    out.U64(io);
    out.Raw("}");
  }
  out.Raw("]}\n");
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  const char* reason) const {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open flight-recorder dump '" + path + "'");
  }
  DumpToFd(fd, reason);
  ::close(fd);
  return Status::OK();
}

FlightRecorder& GlobalFlightRecorder() {
  static FlightRecorder* recorder = new FlightRecorder(1024);
  return *recorder;
}

namespace {

// Fatal-path state is deliberately mutable process globals: the signal
// handler can touch no locks and allocate nothing, so everything it
// reads is precomputed at install time (under g_install_once) and then
// only read. That install-once/read-after discipline — not a mutex — is
// the synchronization here.
//
// Dump path precomputed at install time so the signal path allocates
// nothing. Fixed-size: PATH_MAX-ish is overkill for our layouts.
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
char g_dump_path[512] = {0};
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
std::terminate_handler g_prev_terminate = nullptr;
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
std::once_flag g_install_once;

void ResolveDumpPath() {
  const char* dir = std::getenv("REXP_FLIGHT_DIR");
  if (dir == nullptr || dir[0] == '\0') dir = ".";
  char pid_buf[24];
  size_t n = AppendU64(pid_buf, sizeof(pid_buf), 0,
                       static_cast<uint64_t>(::getpid()));
  pid_buf[n] = '\0';
  std::snprintf(g_dump_path, sizeof(g_dump_path),
                "%s/flight_recorder.%s.json", dir, pid_buf);
}

// Signal-safe: open(2) + DumpToFd only.
void DumpFromFatalPath(const char* reason) {
  if (g_dump_path[0] == '\0') return;
  int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  GlobalFlightRecorder().DumpToFd(fd, reason);
  ::close(fd);
}

void TerminateHandler() {
  DumpFromFatalPath("terminate");
  FlushAllTracers();  // Not a signal context; stdio is fine.
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void CheckFailureDump() {
  DumpFromFatalPath("check_failure");
  FlushAllTracers();
}

void FatalSignalHandler(int sig) {
  DumpFromFatalPath(sig == SIGTERM ? "sigterm" : "sigint");
  // Restore default disposition and re-raise so the process still dies
  // with the original signal (exit status visible to the supervisor).
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void InstallFlightRecorderDumpHandlers() {
  std::call_once(g_install_once, [] {
    ResolveDumpPath();
    GlobalFlightRecorder();  // Construct outside any fatal path.
    g_prev_terminate = std::set_terminate(&TerminateHandler);
    rexp::internal::SetCheckFailureHook(&CheckFailureDump);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &FatalSignalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
  });
}

std::string DumpFlightRecorderNow(const char* reason) {
  if (g_dump_path[0] == '\0') ResolveDumpPath();
  Status s = GlobalFlightRecorder().DumpToFile(g_dump_path, reason);
  if (!s.ok()) return std::string();
  return std::string(g_dump_path);
}

}  // namespace rexp::obs
