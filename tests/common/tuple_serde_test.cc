// Tests for tuple representation, hashing, and the tuple codec.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serde.h"
#include "common/tuple.h"

namespace brisk {
namespace {

Tuple MixedTuple() {
  Tuple t;
  t.fields.emplace_back(int64_t{-77});
  t.fields.emplace_back(3.25);
  t.fields.emplace_back(std::string("hello world"));
  t.origin_ts_ns = 123456789;
  t.stream_id = 2;
  return t;
}

TEST(TupleTest, AccessorsReturnTypedFields) {
  const Tuple t = MixedTuple();
  EXPECT_EQ(t.GetInt(0), -77);
  EXPECT_DOUBLE_EQ(t.GetDouble(1), 3.25);
  EXPECT_EQ(t.GetString(2), "hello world");
}

TEST(TupleTest, SizeBytesCountsFieldsAndMetadata) {
  Tuple t;
  EXPECT_EQ(t.SizeBytes(), sizeof(int64_t) + sizeof(uint16_t));
  t.fields.emplace_back(int64_t{1});
  const size_t with_int = t.SizeBytes();
  EXPECT_EQ(with_int, sizeof(int64_t) * 2 + sizeof(uint16_t));
  t.fields.emplace_back(std::string("abcd"));
  EXPECT_EQ(t.SizeBytes(), with_int + 4 + sizeof(uint32_t));
}

TEST(TupleTest, FieldSizeBytesPerType) {
  EXPECT_EQ(FieldSizeBytes(Field(int64_t{1})), 8u);
  EXPECT_EQ(FieldSizeBytes(Field(1.0)), 8u);
  EXPECT_EQ(FieldSizeBytes(Field(std::string("abc"))), 3u + 4u);
}

TEST(FieldTest, SmallStringsStayInline) {
  // Strings up to the inline cap live inside the 24-byte Field; the
  // whole word_count/fraud key space must qualify.
  const std::string at_cap(Field::kInlineStringCap, 'w');
  Field f(at_cap);
  EXPECT_TRUE(f.is_string());
  EXPECT_EQ(f.AsString(), at_cap);
  // The view points into the field object itself, not the heap.
  const auto* obj = reinterpret_cast<const char*>(&f);
  EXPECT_GE(f.AsString().data(), obj);
  EXPECT_LT(f.AsString().data(), obj + sizeof(Field));
}

TEST(FieldTest, LongStringsSpillAndRoundTrip) {
  const std::string sentence(Field::kInlineStringCap * 4 + 1, 's');
  Field f(sentence);
  EXPECT_EQ(f.AsString(), sentence);
  Field copy(f);
  EXPECT_EQ(copy.AsString(), sentence);
  // Deep copy: mutating the original via reassignment leaves the copy.
  f = Field(int64_t{1});
  EXPECT_EQ(copy.AsString(), sentence);
  // Move hands the block over and leaves the source an empty string.
  const char* block = copy.AsString().data();
  Field moved(std::move(copy));
  EXPECT_EQ(moved.AsString().data(), block);
  EXPECT_EQ(moved.AsString(), sentence);
  EXPECT_TRUE(copy.is_string());
  EXPECT_TRUE(copy.AsString().empty());
}

// Every alternative, at both ends of the inline-string range and
// beyond it, survives each special member with its index() and value.
TEST(FieldTest, LayoutKeepsKindAndValueThroughCopyAndMove) {
  const std::string at_cap(Field::kInlineStringCap, 'c');
  const std::string heap(Field::kInlineStringCap + 1, 'h');
  const std::vector<Field> samples = {Field(int64_t{-1234567890123}),
                                      Field(-2.5), Field(""), Field(at_cap),
                                      Field(heap)};
  auto expect_same = [](const Field& got, const Field& want) {
    ASSERT_EQ(got.index(), want.index());
    switch (want.index()) {
      case 0:
        EXPECT_EQ(got.AsInt(), want.AsInt());
        break;
      case 1:
        EXPECT_EQ(got.AsDouble(), want.AsDouble());
        break;
      case 2:
        EXPECT_EQ(got.AsString(), want.AsString());
        break;
    }
  };
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "sample " << i);
    const Field& want = samples[i];
    const Field copied(want);
    expect_same(copied, want);

    Field source(want);
    const Field moved(std::move(source));
    expect_same(moved, want);

    Field copy_assigned(heap);  // frees its own heap string first
    copy_assigned = want;
    expect_same(copy_assigned, want);

    Field move_source(want);
    Field move_assigned(heap);
    move_assigned = std::move(move_source);
    expect_same(move_assigned, want);

    Field self(want);
    Field& alias = self;
    self = alias;
    expect_same(self, want);
    self = std::move(alias);
    expect_same(self, want);
  }
  EXPECT_EQ(samples[3].AsString().size(), Field::kInlineStringCap);
  EXPECT_EQ(samples[4].AsString().size(), Field::kInlineStringCap + 1);
}

TEST(FieldTest, VariantCompatibleIndexOrder) {
  EXPECT_EQ(Field(int64_t{3}).index(), 0u);
  EXPECT_EQ(Field(3.0).index(), 1u);
  EXPECT_EQ(Field("three").index(), 2u);
  EXPECT_EQ(Field().index(), 0u);  // default is int64 0, like the variant
  EXPECT_EQ(Field().AsInt(), 0);
}

TEST(TupleTest, FieldsStayInlineUpToFiveAndSpillBeyond) {
  Tuple t;
  for (int i = 0; i < 5; ++i) t.fields.emplace_back(int64_t{i});
  EXPECT_FALSE(t.fields.on_heap());  // LR position-report arity fits
  // Copies of a full inline tuple stay inline too (LR's dispatcher
  // forwards its input by copy).
  const Tuple copy = t;
  EXPECT_FALSE(copy.fields.on_heap());
  t.fields.emplace_back(int64_t{5});
  EXPECT_TRUE(t.fields.on_heap());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t.GetInt(i), i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(copy.GetInt(i), i);
}

TEST(TupleTest, MovingATupleMovesFieldsWithoutCopying) {
  Tuple t;
  t.fields.emplace_back(std::string(100, 'z'));  // spilled string
  const char* block = t.fields[0].AsString().data();
  Tuple m = std::move(t);
  EXPECT_EQ(m.fields[0].AsString().data(), block);  // no reallocation
  EXPECT_EQ(m.fields[0].AsString().size(), 100u);
}

TEST(TupleTest, SizeBytesIsLayoutIndependent) {
  // The model's N must not change with the in-memory representation:
  // an inline and a spilled string of the same length, and inline vs
  // spilled field storage, all report identical logical sizes.
  const std::string short_key(10, 'k');
  EXPECT_EQ(FieldSizeBytes(Field(short_key)), 10u + sizeof(uint32_t));
  Tuple wide;  // 6 fields: spilled field storage
  for (int i = 0; i < 6; ++i) wide.fields.emplace_back(int64_t{i});
  ASSERT_TRUE(wide.fields.on_heap());
  EXPECT_EQ(wide.SizeBytes(),
            sizeof(int64_t) + sizeof(uint16_t) + 6 * sizeof(int64_t));
}

TEST(TupleTest, HashFieldStableAndTypeSensitive) {
  EXPECT_EQ(HashField(Field(std::string("word"))),
            HashField(Field(std::string("word"))));
  EXPECT_NE(HashField(Field(std::string("word"))),
            HashField(Field(std::string("work"))));
  EXPECT_EQ(HashField(Field(int64_t{5})), HashField(Field(int64_t{5})));
  EXPECT_NE(HashField(Field(int64_t{5})), HashField(Field(int64_t{6})));
}

TEST(SerdeTest, RoundTripsMixedTuple) {
  const Tuple t = MixedTuple();
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  size_t off = 0;
  auto decoded = DeserializeTuple(buf, &off);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(decoded->origin_ts_ns, t.origin_ts_ns);
  EXPECT_EQ(decoded->stream_id, t.stream_id);
  ASSERT_EQ(decoded->fields.size(), t.fields.size());
  EXPECT_EQ(decoded->GetInt(0), -77);
  EXPECT_DOUBLE_EQ(decoded->GetDouble(1), 3.25);
  EXPECT_EQ(decoded->GetString(2), "hello world");
}

TEST(SerdeTest, RoundTripsEmptyTuple) {
  Tuple t;
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  size_t off = 0;
  auto decoded = DeserializeTuple(buf, &off);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->fields.empty());
}

TEST(SerdeTest, TruncatedBufferFailsCleanly) {
  const Tuple t = MixedTuple();
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  for (const size_t cut : {size_t{0}, size_t{3}, buf.size() / 2,
                           buf.size() - 1}) {
    std::vector<uint8_t> truncated(buf.begin(), buf.begin() + cut);
    size_t off = 0;
    auto decoded = DeserializeTuple(truncated, &off);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  // A bare header claiming 2^32-1 fields: the count is checked against
  // the bytes left before anything is reserved.
  std::vector<uint8_t> hostile(sizeof(int64_t) + sizeof(uint16_t), 0);
  hostile.insert(hostile.end(), 4, uint8_t{0xff});
  size_t off = 0;
  EXPECT_FALSE(DeserializeTuple(hostile, &off).ok());
}

TEST(SerdeTest, CorruptFieldTagRejected) {
  Tuple t;
  t.fields.emplace_back(int64_t{1});
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  // Field tag lives right after the fixed header.
  const size_t tag_offset =
      sizeof(int64_t) + sizeof(uint16_t) + sizeof(uint32_t);
  buf[tag_offset] = 0x7F;
  size_t off = 0;
  auto decoded = DeserializeTuple(buf, &off);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(JumboTupleTest, SizeAndEmpty) {
  JumboTuple j;
  EXPECT_TRUE(j.empty());
  j.tuples.emplace_back();
  EXPECT_EQ(j.size(), 1u);
  EXPECT_FALSE(j.empty());
}

}  // namespace
}  // namespace brisk
