// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// rexp_top: top(1) for a running R^exp-tree. Tails the JSONL time series
// an obs::Monitor writes and renders live operation rates, buffer hit
// ratio, and per-interval latency percentiles as a refreshing terminal
// table.
//
//   $ ./rexp_top [--dir D] [--file F] [--interval S] [--once] [--json]
//   $ ./rexp_top --soak [--soak-seconds S] [--soak-objects N] [--dir D]
//
// Without --file, the newest monitor_*.jsonl under --dir (default
// $REXP_MONITOR_DIR, else ".") is followed; new samples appended by the
// producer appear on the next refresh. --once waits for one sample,
// prints it, and exits (0 on success, 1 if none arrives within 10 s);
// --json prints the raw sample line instead of the table — together they
// make the tool scriptable (CI asserts on `rexp_top --once --json`).
//
// --soak runs a bundled driver instead: an in-memory tree under a steady
// insert/update/search mix with a Monitor attached at 100 ms and the
// flight-recorder fatal-path handlers installed. It is the acceptance
// target ("watch a live index" without writing a driver): run it in one
// terminal, rexp_top in another, kill -TERM it and find the flight dump.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "livetier/tiered_index.h"
#include "obs/flight_recorder.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "storage/page_file.h"
#include "tools/monitor_stream.h"
#include "tree/tree.h"

using namespace rexp;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dir D] [--file F] [--interval S] [--once] "
               "[--json]\n"
               "       %s --soak [--soak-seconds S] [--soak-objects N] "
               "[--soak-tiered] [--dir D]\n",
               argv0, argv0);
  return 2;
}

// ---------------------------------------------------------------------------
// Soak driver.

int RunSoak(const std::string& dir, double seconds, int objects,
            bool tiered) {
  obs::InstallFlightRecorderDumpHandlers();

  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  // In tiered mode every report goes through the in-memory live tier and
  // a soak-owned thread ticks migration to bulk-move the survivors
  // (DESIGN.md §12); the monitor stream then carries livetier.* next to
  // tree.*.
  std::unique_ptr<TieredIndex<2>> tiered_index;
  std::unique_ptr<Tree<2>> plain_tree;
  if (tiered) {
    tiered_index = std::make_unique<TieredIndex<2>>(config, &file);
  } else {
    plain_tree = std::make_unique<Tree<2>>(config, &file);
  }
  Tree<2>& tree = tiered ? tiered_index->tree() : *plain_tree;

  obs::MetricsRegistry registry;
  if (tiered) {
    tiered_index->RegisterMetrics(&registry, "");
  } else {
    tree.RegisterMetrics(&registry, "tree.");
  }

  obs::Monitor::Options opt;
  opt.dir = dir;
  opt.name = "soak";
  obs::Monitor monitor(&registry, opt);
  monitor.AddJsonProvider("heatmap",
                          [&tree] { return tree.buffer().HeatmapJson(10); });
  Status started = monitor.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "monitor: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("soak: monitor stream %s\n", monitor.path().c_str());
  std::printf("soak: %d objects%s, %s; SIGTERM/SIGINT dumps the flight "
              "recorder\n",
              objects, tiered ? " (tiered live-tier index)" : "",
              seconds > 0 ? "bounded run" : "running until killed");
  std::fflush(stdout);
  // Migration off the report path: a soak-owned thread calls
  // MigrateTick every 100 ms.
  std::atomic<bool> stop_migrator{false};
  std::thread migrator;
  if (tiered) {
    migrator = std::thread([&] {
      while (!stop_migrator.load(std::memory_order_relaxed)) {
        (void)tiered_index->MigrateTick();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  std::mt19937 rng(42);
  std::uniform_real_distribution<double> pos_dist(0.0, 100.0);
  std::uniform_real_distribution<double> vel_dist(-1.0, 1.0);
  std::uniform_int_distribution<int> oid_dist(0, objects - 1);

  auto random_record = [&](Time now) {
    Vec<2> pos{{pos_dist(rng), pos_dist(rng)}};
    Vec<2> vel{{vel_dist(rng), vel_dist(rng)}};
    return MakeMovingPoint<2>(pos, vel, now, now + 120.0);
  };

  Time now = 0;
  std::vector<Tpbr<2>> current(static_cast<size_t>(objects));
  for (int oid = 0; oid < objects; ++oid) {
    current[static_cast<size_t>(oid)] = random_record(now);
    if (tiered) {
      tiered_index->Insert(static_cast<ObjectId>(oid),
                           current[static_cast<size_t>(oid)], now);
    } else {
      tree.Insert(static_cast<ObjectId>(oid),
                  current[static_cast<size_t>(oid)], now);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<ObjectId> results;
  ObjectId next_short = static_cast<ObjectId>(objects) + 1000000;
  while (true) {
    now += 0.01;
    // A steady position-report mix: mostly updates, a few searches.
    for (int i = 0; i < 20; ++i) {
      int oid = oid_dist(rng);
      Tpbr<2> next = random_record(now);
      if (tiered) {
        (void)tiered_index->Update(static_cast<ObjectId>(oid),
                                   current[static_cast<size_t>(oid)], next,
                                   now);
      } else {
        (void)tree.Update(static_cast<ObjectId>(oid),
                          current[static_cast<size_t>(oid)], next, now);
      }
      current[static_cast<size_t>(oid)] = next;
    }
    if (tiered) {
      // A short-expiry one-shot report (a sensor blip): the live tier's
      // design case, expected to die in memory without a page touch.
      Tpbr<2> blip = random_record(now);
      blip.t_exp = now + 0.25;
      tiered_index->Insert(next_short++, blip, now);
    }
    double lo_x = pos_dist(rng) * 0.9, lo_y = pos_dist(rng) * 0.9;
    Rect<2> r{{{lo_x, lo_y}}, {{lo_x + 10.0, lo_y + 10.0}}};
    results.clear();
    if (tiered) {
      tiered_index->Search(Query<2>::Timeslice(r, now), &results);
    } else {
      tree.Search(Query<2>::Timeslice(r, now), &results);
    }

    if (seconds > 0) {
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (elapsed >= seconds) break;
    }
  }
  if (migrator.joinable()) {
    stop_migrator.store(true, std::memory_order_relaxed);
    migrator.join();
  }
  monitor.Stop();
  std::printf("soak: done\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Rendering.

// Strips the common "tree." / "queue." prefix noise only if every name
// shares it; otherwise names print as-is.
void PrintSample(const tools::JsonValue& sample) {
  const tools::JsonValue* seq = sample.Find("seq");
  const tools::JsonValue* dt = sample.Find("dt_s");
  const tools::JsonValue* wall = sample.Find("wall_ms");
  std::printf("sample %.0f   dt %.3fs   uptime %.1fs\n",
              seq != nullptr ? seq->NumberOr(0) : 0,
              dt != nullptr ? dt->NumberOr(0) : 0,
              wall != nullptr ? wall->NumberOr(0) / 1000.0 : 0);

  if (const tools::JsonValue* rates = sample.Find("rates");
      rates != nullptr && rates->IsObject()) {
    std::printf("\n%-40s %14s\n", "ops/sec", "rate");
    for (const auto& [name, v] : rates->object) {
      if (v.NumberOr(0) == 0) continue;  // Quiet counters stay hidden.
      std::printf("%-40s %14.1f\n", name.c_str(), v.NumberOr(0));
    }
  }
  if (const tools::JsonValue* gauges = sample.Find("gauges");
      gauges != nullptr && gauges->IsObject()) {
    std::printf("\n%-40s %14s\n", "gauge", "value");
    for (const auto& [name, v] : gauges->object) {
      std::printf("%-40s %14.3f\n", name.c_str(), v.NumberOr(0));
    }
  }
  if (const tools::JsonValue* hist = sample.Find("hist");
      hist != nullptr && hist->IsObject() && !hist->object.empty()) {
    std::printf("\n%-40s %8s %9s %9s %9s\n", "latency (interval)", "count",
                "p50", "p90", "p99");
    for (const auto& [name, h] : hist->object) {
      const tools::JsonValue* count = h.Find("count");
      const tools::JsonValue* p50 = h.Find("p50");
      const tools::JsonValue* p90 = h.Find("p90");
      const tools::JsonValue* p99 = h.Find("p99");
      std::printf("%-40s %8.0f %9.1f %9.1f %9.1f\n", name.c_str(),
                  count != nullptr ? count->NumberOr(0) : 0,
                  p50 != nullptr ? p50->NumberOr(0) : 0,
                  p90 != nullptr ? p90->NumberOr(0) : 0,
                  p99 != nullptr ? p99->NumberOr(0) : 0);
    }
  }
}

bool IsSample(const tools::JsonValue& v) {
  const tools::JsonValue* type = v.Find("type");
  return type != nullptr && type->StringOr("") == "sample";
}

int RunTail(const std::string& dir, std::string file, double interval,
            bool once, bool json) {
  // Resolve the stream: an explicit --file wins; otherwise poll the
  // directory until a producer shows up (bounded in --once mode).
  const auto start = std::chrono::steady_clock::now();
  auto waited_too_long = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() > 10.0;
  };
  while (file.empty()) {
    file = tools::NewestMonitorFile(dir);
    if (!file.empty()) break;
    if (once && waited_too_long()) {
      std::fprintf(stderr, "rexp_top: no monitor_*.jsonl under %s\n",
                   dir.c_str());
      return 1;
    }
    if (!once) {
      std::printf("\033[H\033[2Jrexp_top: waiting for a monitor stream "
                  "under %s ...\n",
                  dir.c_str());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  tools::MonitorStream stream(file);
  std::string latest_raw;
  tools::JsonValue latest;
  while (true) {
    std::vector<std::string> lines;
    stream.Poll(&lines);
    for (std::string& line : lines) {
      tools::JsonValue v;
      if (!tools::ParseJson(line, &v)) continue;  // Torn or foreign line.
      if (!IsSample(v)) continue;
      latest = std::move(v);
      latest_raw = std::move(line);
    }

    if (once) {
      if (!latest_raw.empty()) {
        if (json) {
          std::printf("%s\n", latest_raw.c_str());
        } else {
          std::printf("rexp_top — %s\n", stream.path().c_str());
          PrintSample(latest);
        }
        return 0;
      }
      if (waited_too_long()) {
        std::fprintf(stderr, "rexp_top: no sample appeared in %s\n",
                     stream.path().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }

    if (json) {
      // Streaming JSON mode: emit each refresh's latest sample.
      if (!latest_raw.empty()) {
        std::printf("%s\n", latest_raw.c_str());
        latest_raw.clear();
      }
    } else {
      std::printf("\033[H\033[2Jrexp_top — %s\n", stream.path().c_str());
      if (latest.IsObject()) {
        PrintSample(latest);
      } else {
        std::printf("waiting for samples ...\n");
      }
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval > 0 ? interval : 1.0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string file;
  double interval = 1.0;
  bool once = false;
  bool json = false;
  bool soak = false;
  bool soak_tiered = false;
  double soak_seconds = 0;
  int soak_objects = 2000;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s requires a value\n", flag);
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--dir") == 0) {
      dir = value("--dir");
    } else if (std::strcmp(argv[i], "--file") == 0) {
      file = value("--file");
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      const char* v = value("--interval");
      if (!ParsePositiveDouble(v, &interval)) {
        std::fprintf(stderr, "--interval must be a positive number, got "
                             "'%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(argv[i], "--soak-tiered") == 0) {
      soak_tiered = true;
    } else if (std::strcmp(argv[i], "--soak-seconds") == 0) {
      const char* v = value("--soak-seconds");
      if (!ParseDouble(v, &soak_seconds) || soak_seconds < 0) {
        std::fprintf(stderr, "--soak-seconds must be a non-negative number, "
                             "got '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--soak-objects") == 0) {
      const char* v = value("--soak-objects");
      uint32_t n = 0;
      if (!ParsePositiveU32(v, &n)) {
        std::fprintf(stderr, "--soak-objects must be a positive integer, "
                             "got '%s'\n", v);
        return Usage(argv[0]);
      }
      soak_objects = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  if (dir.empty()) {
    const char* env = std::getenv("REXP_MONITOR_DIR");
    dir = (env != nullptr && env[0] != '\0') ? env : ".";
  }

  if (soak) return RunSoak(dir, soak_seconds, soak_objects, soak_tiered);
  return RunTail(dir, std::move(file), interval, once, json);
}
