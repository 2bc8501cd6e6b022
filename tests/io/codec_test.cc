// Record framing (io/codec.h): incremental framing over arbitrary
// window splits, tuple payload round-trips, file read/write helpers,
// and the corruption guards every network-facing parser needs.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/tuple.h"
#include "io/codec.h"

namespace brisk::io {
namespace {

std::vector<uint8_t> FrameAll(RecordCodec codec,
                              const std::vector<std::string>& records) {
  std::vector<uint8_t> out;
  for (const auto& r : records) AppendRecord(codec, r, &out);
  return out;
}

std::vector<std::string> ParseAll(RecordCodec codec,
                                  const std::vector<uint8_t>& buf) {
  std::vector<std::string> out;
  size_t consumed = 0;
  std::string_view rec;
  while (NextRecord(codec, buf.data(), buf.size(), &consumed, &rec) ==
         FrameResult::kRecord) {
    out.emplace_back(rec);
  }
  return out;
}

TEST(CodecTest, TextFramingRoundTrips) {
  const std::vector<std::string> records = {"hello world", "", "a", "b c d"};
  const auto buf = FrameAll(RecordCodec::kText, records);
  EXPECT_EQ(ParseAll(RecordCodec::kText, buf), records);
}

TEST(CodecTest, BinaryFramingRoundTrips) {
  // Payloads with embedded newlines and NULs — opaque to binary framing.
  const std::vector<std::string> records = {
      "plain", std::string("nul\0payload", 11), "line\nbreak", ""};
  const auto buf = FrameAll(RecordCodec::kBinary, records);
  EXPECT_EQ(ParseAll(RecordCodec::kBinary, buf), records);
}

TEST(CodecTest, PartialFramesReportNeedMoreAtEverySplit) {
  for (const RecordCodec codec : {RecordCodec::kText, RecordCodec::kBinary}) {
    const std::vector<std::string> records = {"first-record", "second"};
    const auto buf = FrameAll(codec, records);
    // Feed every strict prefix: the parser must extract exactly the
    // records whose full frame fits and report kNeedMore for the rest,
    // never consuming a partial frame.
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t consumed = 0;
      std::string_view rec;
      std::vector<std::string> got;
      FrameResult r;
      while ((r = NextRecord(codec, buf.data(), cut, &consumed, &rec)) ==
             FrameResult::kRecord) {
        got.emplace_back(rec);
      }
      EXPECT_EQ(r, FrameResult::kNeedMore) << "cut=" << cut;
      ASSERT_LE(got.size(), records.size());
      for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], records[i]);
      EXPECT_LE(consumed, cut);
    }
  }
}

TEST(CodecTest, OversizedBinaryLengthIsFrameCorruption) {
  std::vector<uint8_t> buf;
  const uint32_t huge = kMaxRecordBytes + 1;
  for (int i = 0; i < 4; ++i) buf.push_back(uint8_t(huge >> (8 * i)));
  buf.insert(buf.end(), 16, uint8_t{0xab});
  size_t consumed = 0;
  std::string_view rec;
  EXPECT_EQ(NextRecord(RecordCodec::kBinary, buf.data(), buf.size(),
                       &consumed, &rec),
            FrameResult::kError);
  EXPECT_EQ(consumed, 0u);  // nothing consumed from a corrupt stream
}

TEST(CodecTest, TextTupleDecodesToSingleStringField) {
  auto t = DecodeTupleRecord(RecordCodec::kText, "the quick brown fox");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->fields.size(), 1u);
  EXPECT_EQ(t->GetString(0), "the quick brown fox");
  EXPECT_EQ(t->origin_ts_ns, 0);  // caller stamps
}

TEST(CodecTest, BinaryTupleRoundTripsEveryFieldKindExactly) {
  Tuple t;
  t.fields.push_back(Field(int64_t{-42}));
  t.fields.push_back(Field(3.14159265358979));
  t.fields.push_back(Field(std::string("a word")));
  t.origin_ts_ns = 123456789;
  std::vector<uint8_t> buf;
  EncodeTupleRecord(RecordCodec::kBinary, t, &buf);

  size_t consumed = 0;
  std::string_view rec;
  ASSERT_EQ(NextRecord(RecordCodec::kBinary, buf.data(), buf.size(),
                       &consumed, &rec),
            FrameResult::kRecord);
  EXPECT_EQ(consumed, buf.size());
  auto back = DecodeTupleRecord(RecordCodec::kBinary, rec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->fields.size(), 3u);
  EXPECT_EQ(back->GetInt(0), -42);
  EXPECT_EQ(back->GetDouble(1), 3.14159265358979);
  EXPECT_EQ(back->GetString(2), "a word");
  EXPECT_EQ(back->origin_ts_ns, 123456789);
}

TEST(CodecTest, HostileBinaryFieldCountIsRejected) {
  // A 14-byte tuple header (origin_ts, stream id) claiming 2^32-1
  // fields, as a socket or file peer could send it.
  std::string rec(sizeof(int64_t) + sizeof(uint16_t), '\0');
  rec.append(4, '\xff');
  auto t = DecodeTupleRecord(RecordCodec::kBinary, rec);
  EXPECT_FALSE(t.ok());
}

TEST(CodecTest, TextTupleEncodesFieldsSpaceSeparated) {
  Tuple t;
  t.fields.push_back(Field(std::string("word")));
  t.fields.push_back(Field(int64_t{7}));
  std::vector<uint8_t> buf;
  EncodeTupleRecord(RecordCodec::kText, t, &buf);
  const auto records = ParseAll(RecordCodec::kText, buf);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "word 7");
}

TEST(CodecTest, RecordFilesRoundTripBothCodecs) {
  for (const RecordCodec codec : {RecordCodec::kText, RecordCodec::kBinary}) {
    const std::string path = testing::TempDir() + "io_codec_file_" +
                             RecordCodecName(codec) + ".dat";
    const std::vector<std::string> records = {"one", "two two", "three"};
    ASSERT_TRUE(WriteRecordFile(path, codec, records).ok());
    auto back = ReadRecordFile(path, codec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), records);
  }
}

TEST(CodecTest, ReadToleratesUnterminatedFinalTextLine) {
  const std::string path = testing::TempDir() + "io_codec_unterminated.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("complete line\nno trailing newline", f);
  std::fclose(f);
  auto records = ReadRecordFile(path, RecordCodec::kText);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(records->at(1), "no trailing newline");
}

TEST(CodecTest, ReadRejectsTruncatedBinaryFile) {
  const std::string path = testing::TempDir() + "io_codec_truncated.bin";
  std::vector<uint8_t> buf;
  AppendRecord(RecordCodec::kBinary, "whole record", &buf);
  AppendRecord(RecordCodec::kBinary, "cut off", &buf);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size() - 3, f), buf.size() - 3);
  std::fclose(f);
  EXPECT_FALSE(ReadRecordFile(path, RecordCodec::kBinary).ok());
}

TEST(CodecTest, MissingFileIsAnError) {
  EXPECT_FALSE(
      ReadRecordFile("/nonexistent/io_codec", RecordCodec::kText).ok());
}

}  // namespace
}  // namespace brisk::io
