#include <gtest/gtest.h>

#include "jacobi/objects.hpp"
#include "lu/objects.hpp"
#include "serial/object.hpp"
#include "support/error.hpp"

namespace dps::serial {
namespace {

struct Simple final : ObjectBase {
  std::int32_t a = 0;
  double b = 0;
  std::string name;
  std::vector<std::int64_t> values;
  std::size_t wireSize() const override { return byteCount(a, b, name, values); }
};

struct Nested final : ObjectBase {
  std::vector<std::pair<std::int32_t, std::string>> entries;
  std::size_t wireSize() const override { return byteCount(entries); }
};

TEST(WireSizeTest, CountsFieldsExactly) {
  Simple s;
  s.a = 1;
  s.name = std::string(100, 'x');
  s.values.assign(17, 9);
  // i32 + f64 + (u64 length + 100 chars) + (u64 length + 17 x i64).
  EXPECT_EQ(s.wireSize(), 264u);

  Nested n;
  n.entries = {{1, "a"}, {2, "bb"}, {3, ""}};
  // u64 length + three (i32 + u64 length + chars) pairs.
  EXPECT_EQ(n.wireSize(), 47u);

  EXPECT_EQ(byteCount(), 0u);
  EXPECT_EQ(Nested{}.wireSize(), 8u);
}

// --- phantom payloads (NOALLOC) ---

TEST(PhantomTest, PhantomAndRealHaveIdenticalWireSize) {
  lu::MultRequest real;
  real.level = 1;
  real.i = 2;
  real.j = 3;
  real.a = lu::BlockPayload::fromMatrix(lin::testMatrix(1, 16));
  real.b = lu::BlockPayload::fromMatrix(lin::testMatrix(2, 16));

  lu::MultRequest phantom;
  phantom.level = 1;
  phantom.i = 2;
  phantom.j = 3;
  phantom.a = lu::BlockPayload::phantomOf(16, 16);
  phantom.b = lu::BlockPayload::phantomOf(16, 16);

  EXPECT_EQ(real.wireSize(), phantom.wireSize());
  // Three i32 indices + two (rows, cols, phantom flag, 16 x 16 doubles).
  EXPECT_EQ(real.wireSize(), 4126u);
}

TEST(PhantomTest, PayloadCarryingObjectsPinTheirWireSize) {
  lu::T12Ready t;
  t.t12 = lu::BlockPayload::phantomOf(8, 8);
  EXPECT_EQ(t.wireSize(), 529u);
  t.t12 = lu::BlockPayload::fromMatrix(lin::testMatrix(3, 8));
  EXPECT_EQ(t.wireSize(), 529u);

  lu::TrsmRequest trsm;
  trsm.l11 = lu::BlockPayload::phantomOf(8, 8);
  trsm.pivots.assign(8, 0);
  EXPECT_EQ(trsm.wireSize(), 569u);
}

TEST(PhantomTest, HaloRowSizeIgnoresWhetherTheRowIsReal) {
  jacobi::HaloRow real;
  real.row.assign(100, 1.0);
  jacobi::HaloRow phantom;
  phantom.phantomCols = 100;
  EXPECT_EQ(real.wireSize(), 817u);
  EXPECT_EQ(phantom.wireSize(), 817u);
  // Three i32 header fields, the phantom flag and the i32 column count.
  EXPECT_EQ(jacobi::HaloRow{}.wireSize(), 17u);
}

TEST(PhantomTest, MaterializingPhantomThrows) {
  auto p = lu::BlockPayload::phantomOf(4, 4);
  EXPECT_THROW(p.toMatrix(), Error);
}

} // namespace
} // namespace dps::serial
