// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// A BotFighters-style mixed-reality location game — the paper's motivating
// application. Players roam a city; a player may "shoot" only players
// currently within range. Phones go offline without notice, so every
// position report carries a short expiration time: an offline player
// simply stops being a target, and the R^exp-tree reclaims the stale
// records lazily, without any deregistration traffic.
//
//   $ ./location_game [rounds]
//
// Each round: players report positions (some go offline), every active
// player fires a range query for targets near their predicted position,
// and the game prints a scoreboard. Results are validated against a
// brute-force oracle to show the index returns exactly the right targets.

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <vector>

#include "common/parse.h"
#include "common/random.h"
#include "storage/page_file.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

using namespace rexp;

namespace {

constexpr int kPlayers = 600;
constexpr double kCity = 40.0;        // 40 x 40 km city.
constexpr double kShotRange = 0.5;    // "Only players close by can be shot."
constexpr double kReportTtl = 6.0;    // Minutes before a report goes stale.
constexpr double kRoundMinutes = 2.0;

struct Player {
  bool online = true;
  Vec<2> pos;
  Vec<2> vel;
  Tpbr<2> record;  // Last canonical report (needed for updates).
  bool in_index = false;
  int score = 0;
};

Vec<2> RandomVelocity(Rng* rng) {
  // Walking or driving, up to 0.8 km/min.
  return Vec<2>{rng->Uniform(-0.8, 0.8), rng->Uniform(-0.8, 0.8)};
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 12;
  if (argc > 1 && !ParseI32(argv[1], &rounds)) {
    std::fprintf(stderr, "usage: %s [rounds]\n", argv[0]);
    return 2;
  }
  Rng rng(2026);

  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  ReferenceIndex<2> oracle;  // Brute force, for validation.

  std::vector<Player> players(kPlayers);
  Time now = 0;
  for (int i = 0; i < kPlayers; ++i) {
    players[i].pos = Vec<2>{rng.Uniform(0, kCity), rng.Uniform(0, kCity)};
    players[i].vel = RandomVelocity(&rng);
  }

  uint64_t shots = 0, validated = 0;
  for (int round = 0; round < rounds; ++round) {
    // --- Reporting phase -------------------------------------------------
    int offline_events = 0;
    for (int i = 0; i < kPlayers; ++i) {
      Player& p = players[i];
      // Physics: move, bounce off the city limits.
      for (int d = 0; d < 2; ++d) {
        p.pos[d] += p.vel[d] * kRoundMinutes;
        if (p.pos[d] < 0 || p.pos[d] > kCity) {
          p.vel[d] = -p.vel[d];
          p.pos[d] = std::clamp(p.pos[d], 0.0, kCity);
        }
      }
      // 4% of players drop off the network each round — without telling
      // the server. 8% of offline players come back.
      if (p.online && rng.Bernoulli(0.04)) {
        p.online = false;
        ++offline_events;
      } else if (!p.online && rng.Bernoulli(0.08)) {
        p.online = true;
      }
      if (!p.online) continue;

      // Online players refresh their report: delete the old record (this
      // legitimately fails if it already expired) and insert the new one.
      if (p.in_index) {
        (void)tree.Delete(static_cast<ObjectId>(i), p.record, now);
        oracle.Delete(static_cast<ObjectId>(i), p.record, now);
      }
      if (rng.Bernoulli(0.25)) p.vel = RandomVelocity(&rng);
      p.record = MakeMovingPoint<2>(p.pos, p.vel, now, now + kReportTtl);
      tree.Insert(static_cast<ObjectId>(i), p.record, now);
      oracle.Insert(static_cast<ObjectId>(i), p.record);
      p.in_index = true;
    }

    // --- Shooting phase --------------------------------------------------
    // Every online player scans for targets around their position half a
    // minute from now (a timeslice query — "where will everyone be when my
    // shot lands?").
    Time shot_time = now + 0.5;
    int round_hits = 0;
    std::vector<ObjectId> targets, expected;
    for (int i = 0; i < kPlayers; ++i) {
      const Player& p = players[i];
      if (!p.online) continue;
      Vec<2> at = p.record.PointAt(shot_time);
      Query<2> q =
          Query<2>::Timeslice(Rect<2>::Cube(at, 2 * kShotRange), shot_time);
      targets.clear();
      tree.Search(q, &targets);
      expected.clear();
      oracle.Search(q, &expected);
      std::sort(targets.begin(), targets.end());
      std::sort(expected.begin(), expected.end());
      if (targets != expected) {
        std::fprintf(stderr, "index/oracle mismatch in round %d!\n", round);
        return 1;
      }
      ++validated;
      for (ObjectId t : targets) {
        if (t == static_cast<ObjectId>(i)) continue;  // Not yourself.
        players[i].score += 10;
        ++round_hits;
        ++shots;
      }
    }

    std::printf(
        "round %2d  t=%5.1f  online=%4d  offline_events=%2d  hits=%3d  "
        "index: %llu entries, %.1f%% expired\n",
        round, now,
        static_cast<int>(std::count_if(players.begin(), players.end(),
                                       [](const Player& p) {
                                         return p.online;
                                       })),
        offline_events, round_hits,
        static_cast<unsigned long long>(tree.leaf_entries()),
        100 * tree.ExpiredLeafFraction(now).value());
    now += kRoundMinutes;
    oracle.Vacuum(now);
  }

  // Scoreboard.
  std::vector<int> order(kPlayers);
  for (int i = 0; i < kPlayers; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return players[a].score > players[b].score;
  });
  std::printf("\ntop players:\n");
  for (int k = 0; k < 5; ++k) {
    std::printf("  #%d: player %d with %d points\n", k + 1, order[k],
                players[order[k]].score);
  }
  std::printf("\n%llu shots fired, %llu queries validated against the "
              "oracle, %llu tree pages\n",
              static_cast<unsigned long long>(shots),
              static_cast<unsigned long long>(validated),
              static_cast<unsigned long long>(tree.PagesUsed()));
  return 0;
}
