// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Static-analysis anchor for header-only modules. src/sched/ and
// src/livetier/ (and the tools/ stream parser) ship no .cc of their own,
// so without this translation unit they never appear in
// compile_commands.json and clang-tidy / -Wthread-safety skip them
// entirely. Compiling this TU gives every header-only module a compile
// command and doubles as a check that each header is self-contained.
//
// Keep the list sorted and add a line when introducing a new header-only
// module; scripts/run_clang_tidy.sh lints this file like any other TU.

#include "common/parse.h"
#include "livetier/live_tier.h"
#include "livetier/tiered_index.h"
#include "sched/lock_rank.h"
#include "sched/mutex.h"
#include "sched/scheduled_index.h"
#include "sched/shared_mutex.h"
#include "../tools/monitor_stream.h"

// The TU must emit at least one symbol or some linkers warn about an
// empty object file.
namespace rexp {
namespace lint {
int HeaderLintAnchor() { return 0; }
}  // namespace lint
}  // namespace rexp
