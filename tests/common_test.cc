// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the common substrate: vectors, rectangles, the three query
// types, and directed float rounding.

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/float_round.h"
#include "common/parse.h"
#include "common/query.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vec.h"

namespace rexp {
namespace {

TEST(Vec, Arithmetic) {
  Vec<2> a{1, 2}, b{3, -4};
  Vec<2> sum = a + b;
  EXPECT_EQ(sum[0], 4);
  EXPECT_EQ(sum[1], -2);
  Vec<2> diff = a - b;
  EXPECT_EQ(diff[0], -2);
  EXPECT_EQ(diff[1], 6);
  Vec<2> scaled = a * 2.5;
  EXPECT_EQ(scaled[0], 2.5);
  EXPECT_EQ(scaled[1], 5.0);
  EXPECT_TRUE((a == Vec<2>{1, 2}));
  EXPECT_FALSE((a == b));
}

TEST(Vec, NormMatchesPythagoras) {
  Vec<2> v{3, 4};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  Vec<3> w{1, 2, 2};
  EXPECT_DOUBLE_EQ(w.Norm(), 3.0);
  Vec<1> u{-7};
  EXPECT_DOUBLE_EQ(u.Norm(), 7.0);
}

TEST(Rect, ContainsAndVolume) {
  Rect<2> r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.IsValid());
  EXPECT_TRUE(r.Contains(Vec<2>{5, 2}));
  EXPECT_TRUE(r.Contains(Vec<2>{0, 0}));    // Boundary inclusive.
  EXPECT_TRUE(r.Contains(Vec<2>{10, 5}));
  EXPECT_FALSE(r.Contains(Vec<2>{10.01, 5}));
  EXPECT_FALSE(r.Contains(Vec<2>{-0.01, 0}));
  EXPECT_DOUBLE_EQ(r.Volume(), 50.0);
}

TEST(Rect, CubeIsCenteredSquare) {
  Rect<2> r = Rect<2>::Cube({100, 200}, 50);
  EXPECT_DOUBLE_EQ(r.lo[0], 75);
  EXPECT_DOUBLE_EQ(r.hi[0], 125);
  EXPECT_DOUBLE_EQ(r.lo[1], 175);
  EXPECT_DOUBLE_EQ(r.hi[1], 225);
  EXPECT_DOUBLE_EQ(r.Volume(), 2500.0);
}

TEST(Rect, InvalidWhenInverted) {
  Rect<2> r{{1, 0}, {0, 1}};
  EXPECT_FALSE(r.IsValid());
}

TEST(Query, TimesliceIsDegenerateWindow) {
  Rect<2> r{{0, 0}, {10, 10}};
  auto q = Query<2>::Timeslice(r, 5);
  EXPECT_EQ(q.type, QueryType::kTimeslice);
  EXPECT_EQ(q.t_lo, 5);
  EXPECT_EQ(q.t_hi, 5);
  EXPECT_EQ(q.LoAt(0, 5), 0);
  EXPECT_EQ(q.HiAt(1, 5), 10);
  EXPECT_EQ(q.LoVel(0), 0);
}

TEST(Query, MovingInterpolatesLinearly) {
  Rect<2> r1{{0, 0}, {10, 10}};
  Rect<2> r2{{20, -10}, {30, 0}};
  auto q = Query<2>::Moving(r1, r2, 10, 20);
  EXPECT_EQ(q.type, QueryType::kMoving);
  // Midpoint in time: midpoint in space.
  EXPECT_DOUBLE_EQ(q.LoAt(0, 15), 10);
  EXPECT_DOUBLE_EQ(q.HiAt(0, 15), 20);
  EXPECT_DOUBLE_EQ(q.LoAt(1, 15), -5);
  // Velocities: 20 units over 10 time units in x.
  EXPECT_DOUBLE_EQ(q.LoVel(0), 2.0);
  EXPECT_DOUBLE_EQ(q.HiVel(1), -1.0);
  // Endpoints reproduce the rectangles exactly.
  EXPECT_DOUBLE_EQ(q.LoAt(0, 10), 0);
  EXPECT_DOUBLE_EQ(q.LoAt(0, 20), 20);
}

TEST(FloatRound, DirectedRoundingBrackets) {
  Rng rng(55);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.Uniform(-1e6, 1e6) * std::pow(10, rng.Uniform(-3, 3));
    float down = FloatRoundDown(x);
    float up = FloatRoundUp(x);
    EXPECT_LE(static_cast<double>(down), x);
    EXPECT_GE(static_cast<double>(up), x);
    // The bracket is at most one ULP wide.
    EXPECT_LE(up - down,
              std::max(std::abs(x) * 2.4e-7, 1e-30));
  }
}

TEST(FloatRound, ExactValuesUnchanged) {
  for (double x : {0.0, 1.0, -2.5, 1024.0, 0.125}) {
    EXPECT_EQ(static_cast<double>(FloatRoundDown(x)), x);
    EXPECT_EQ(static_cast<double>(FloatRoundUp(x)), x);
  }
}

TEST(FloatRound, InfinityPassesThrough) {
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(FloatRoundUp(inf), std::numeric_limits<float>::infinity());
  EXPECT_EQ(FloatRoundDown(-inf), -std::numeric_limits<float>::infinity());
}

TEST(Types, TimeSentinels) {
  EXPECT_FALSE(IsFiniteTime(kNeverExpires));
  EXPECT_TRUE(IsFiniteTime(0.0));
  EXPECT_TRUE(IsFiniteTime(1e30));
}

TEST(Status, OkAndErrorBasics) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status io = Status::IOError("disk on fire");
  EXPECT_FALSE(io.ok());
  EXPECT_TRUE(io.IsIOError());
  EXPECT_FALSE(io.IsCorruption());
  EXPECT_EQ(io.message(), "disk on fire");
  EXPECT_EQ(io.ToString(), "IOError: disk on fire");

  Status corrupt = Status::Corruption("bad checksum");
  EXPECT_TRUE(corrupt.IsCorruption());
  EXPECT_EQ(corrupt.ToString(), "Corruption: bad checksum");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(Status, StatusOrCarriesValueOrError) {
  StatusOr<int> good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(*good, 7);

  StatusOr<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Status, StatusOrMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> p = std::make_unique<int>(5);
  ASSERT_TRUE(p.ok());
  std::unique_ptr<int> owned = std::move(p).value();
  EXPECT_EQ(*owned, 5);
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  auto chain = [](bool fail) -> Status {
    auto step = [&]() -> Status {
      return fail ? Status::IOError("inner") : Status::OK();
    };
    REXP_RETURN_IF_ERROR(step());
    return Status::Corruption("reached past the error");
  };
  EXPECT_TRUE(chain(true).IsIOError());
  EXPECT_TRUE(chain(false).IsCorruption());

  auto assign = [](StatusOr<int> in) -> StatusOr<int> {
    REXP_ASSIGN_OR_RETURN(int v, std::move(in));
    return v * 2;
  };
  EXPECT_EQ(assign(21).value(), 42);
  EXPECT_TRUE(assign(Status::IOError("nope")).status().IsIOError());
}

using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

void ExpectKnownVectors(CrcFn crc) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes.
  uint8_t zeros[32] = {0};
  EXPECT_EQ(crc(zeros, sizeof(zeros), 0), 0x8a9136aau);
  // "123456789" — the classic check value.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc(digits, sizeof(digits), 0), 0xe3069283u);
  // Incremental (seeded) computation matches one-shot.
  EXPECT_EQ(crc(digits + 4, 5, crc(digits, 4, 0)), 0xe3069283u);
}

TEST(Crc32c, KnownVectorsAndSensitivity) {
  ExpectKnownVectors([](const uint8_t* data, size_t n, uint32_t seed) {
    return Crc32c(data, n, seed);
  });
  // Any single flipped bit changes the sum.
  uint8_t copy[32] = {0};
  copy[17] ^= 0x20;
  EXPECT_NE(Crc32c(copy, sizeof(copy)), 0x8a9136aau);
}

// Crc32c dispatches to one implementation per CPU; calling each directly
// keeps the other under test too.
TEST(Crc32c, TablePathKnownVectors) {
  ExpectKnownVectors(internal::Crc32cTable);
}

TEST(Crc32c, HardwarePathKnownVectors) {
  if (!internal::HaveHwCrc32c()) GTEST_SKIP() << "CPU lacks SSE4.2";
  ExpectKnownVectors(internal::Crc32cHw);
}

TEST(Crc32c, HardwareMatchesTableOnEveryLengthAndAlignment) {
  if (!internal::HaveHwCrc32c()) GTEST_SKIP() << "CPU lacks SSE4.2";
  Rng rng(3720);
  std::vector<uint8_t> buf(4104 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  uint32_t seed = 0;
  for (size_t len = 0; len <= 4103; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      uint32_t table = internal::Crc32cTable(buf.data() + offset, len, seed);
      uint32_t hw = internal::Crc32cHw(buf.data() + offset, len, seed);
      ASSERT_EQ(hw, table) << "len " << len << " offset " << offset;
      seed = table;  // Chain: the next call continues from this one.
    }
  }
}

// ---------------------------------------------------------------------------
// Checked CLI value parsing (common/parse.h). The tools route every
// numeric flag through these; the contract is strict whole-token parsing
// with failure (not zero) on garbage.

TEST(Parse, I64AcceptsWholeDecimalTokens) {
  int64_t v = -1;
  EXPECT_TRUE(ParseI64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseI64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseI64("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseI64("9223372036854775807", &v));
  EXPECT_EQ(v, std::numeric_limits<int64_t>::max());
}

TEST(Parse, I64RejectsGarbageAndOverflow) {
  int64_t v = 123;
  EXPECT_FALSE(ParseI64("bogus", &v));
  EXPECT_FALSE(ParseI64("", &v));
  EXPECT_FALSE(ParseI64(nullptr, &v));
  EXPECT_FALSE(ParseI64("12abc", &v));
  EXPECT_FALSE(ParseI64("1.5", &v));
  EXPECT_FALSE(ParseI64(" 12", &v));
  EXPECT_FALSE(ParseI64("12 ", &v));
  EXPECT_FALSE(ParseI64("9223372036854775808", &v));  // INT64_MAX + 1.
  EXPECT_EQ(v, 123) << "failed parse must leave *out untouched";
}

TEST(Parse, U64RejectsNegative) {
  uint64_t v = 7;
  EXPECT_FALSE(ParseU64("-1", &v));
  EXPECT_FALSE(ParseU64("-0", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseU64("18446744073709551616", &v));
}

TEST(Parse, DoubleRequiresFiniteWholeToken) {
  double v = 99;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("bogus", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("inf", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));
  EXPECT_FALSE(ParseDouble("1e999", &v));  // Overflows to inf via ERANGE.
}

TEST(Parse, NarrowingAndPositivityChecks) {
  uint32_t u = 5;
  EXPECT_TRUE(ParseU32("4294967295", &u));
  EXPECT_EQ(u, std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(ParseU32("4294967296", &u));
  EXPECT_FALSE(ParsePositiveU32("0", &u));
  EXPECT_TRUE(ParsePositiveU32("4096", &u));
  EXPECT_EQ(u, 4096u);

  int32_t i = 5;
  EXPECT_TRUE(ParseI32("-2147483648", &i));
  EXPECT_EQ(i, std::numeric_limits<int32_t>::min());
  EXPECT_FALSE(ParseI32("2147483648", &i));

  double d = 5;
  EXPECT_FALSE(ParsePositiveDouble("0", &d));
  EXPECT_FALSE(ParsePositiveDouble("-0.5", &d));
  EXPECT_TRUE(ParsePositiveDouble("0.25", &d));
  EXPECT_EQ(d, 0.25);
}

}  // namespace
}  // namespace rexp
