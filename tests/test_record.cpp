// Tests for the record codec every cross-process format shares
// (support/record.hpp): the writer helpers, and the reader's one set of
// rules — each line ends in '\n', integers are plain digits, a double is one
// whole strtod token, no field goes unread, and nothing follows `end`.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/record.hpp"

namespace mf::support {
namespace {

/// The message reading `text` as one `key <u64>` line throws, or "accepted".
std::string u64_error(const std::string& text) {
  try {
    RecordReader in(text);
    in.line("key");
    (void)in.u64();
    in.finish();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "accepted";
}

TEST(RecordReader, ReadsEveryFieldKindLeftToRight) {
  const std::string text =
      "demo-record v1\n"
      "ids 0123456789abcdef 18446744073709551615 1 0\n"
      "name  free text, spaces kept \n"
      "kind H4w+ls\n"
      "blob 8\n"
      "a\nb c\nd\n\n"
      "end\n";
  RecordReader in(text);
  in.header("demo-record v1");
  in.line("ids");
  EXPECT_EQ(in.hex64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(in.flag());
  EXPECT_FALSE(in.line_done());
  EXPECT_FALSE(in.flag());
  EXPECT_TRUE(in.line_done());
  in.line("name");
  EXPECT_EQ(in.rest(), "free text, spaces kept ");
  in.line("kind");
  EXPECT_EQ(in.word(), "H4w+ls");
  in.line("blob");
  EXPECT_EQ(in.blob(in.u64()), "a\nb c\nd\n");
  EXPECT_NO_THROW(in.finish());
}

TEST(RecordReader, HexfloatsRoundTripEveryBit) {
  for (const double value :
       {0.0, -0.0, 0.1, 1.0 / 3.0, 0x1p-1074, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const std::string text = "x " + hexfloat(value) + "\n";
    RecordReader in(text);
    in.line("x");
    const double read = in.real();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read), std::bit_cast<std::uint64_t>(value))
        << text;
  }
  EXPECT_EQ(hexfloat(0.5), "0x1p-1");
  EXPECT_EQ(hex64(0xabcULL), "0000000000000abc");
  EXPECT_EQ(one_line("a\nb\r\nc"), "a b  c");
}

TEST(RecordReader, ClippedQuotesAtMost64Bytes) {
  const std::string exact(64, 'a');
  EXPECT_EQ(clipped(exact), exact);
  EXPECT_EQ(clipped(exact + "b"), exact + "...");
  EXPECT_EQ(clipped(""), "");
}

TEST(RecordReader, IntegersAreDecimalDigitsOnly) {
  EXPECT_EQ(u64_error("key 18446744073709551615\nend\n"), "accepted");
  for (const char* token : {"-1", "+1", "18446744073709551616", "1x", "0x10", "1.0", "fast"}) {
    EXPECT_EQ(u64_error(std::string("key ") + token + "\nend\n"),
              std::string("line 1: bad number '") + token + "'");
    EXPECT_FALSE(parse_u64(token).has_value()) << token;
  }
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_EQ(parse_u64("0042"), 42u);
}

TEST(RecordReader, RealsFlagsAndHexWordsAreWholeTokens) {
  const auto error = [](const std::string& text, auto read) -> std::string {
    try {
      RecordReader in(text);
      in.line("key");
      read(in);
    } catch (const std::invalid_argument& caught) {
      return caught.what();
    }
    return "accepted";
  };
  const auto real = [](RecordReader& in) { (void)in.real(); };
  const auto flag = [](RecordReader& in) { (void)in.flag(); };
  const auto hex = [](RecordReader& in) { (void)in.hex64(); };
  EXPECT_EQ(error("key 0x1.8p+1\n", real), "accepted");
  EXPECT_EQ(error("key 1.5e3\n", real), "accepted");
  EXPECT_EQ(error("key 1.5x\n", real), "line 1: bad number '1.5x'");
  EXPECT_EQ(error("key 0x1p\n", real), "line 1: bad number '0x1p'");
  // Fields split on ' ' only, and strtod would skip the other whitespace.
  for (const char* token : {"\t0x1.8p+1", "\r0x1.8p+1", "\v0x1.8p+1", "\f0x1.8p+1"}) {
    EXPECT_EQ(error(std::string("key ") + token + "\n", real),
              std::string("line 1: bad number '") + token + "'");
  }
  EXPECT_EQ(error("key\n", real), "line 1: missing field in 'key' line");
  EXPECT_EQ(error("key 1\n", flag), "accepted");
  EXPECT_EQ(error("key 2\n", flag), "line 1: bad flag '2'");
  EXPECT_EQ(error("key 01\n", flag), "line 1: bad flag '01'");
  EXPECT_EQ(error("key 00000000000000ff\n", hex), "accepted");
  EXPECT_EQ(error("key ff\n", hex), "line 1: bad hex number 'ff'");
  EXPECT_EQ(error("key -000000000000001\n", hex), "line 1: bad hex number '-000000000000001'");
}

TEST(RecordReader, LinesMustBeAskedForCompletedAndTerminated) {
  const auto error = [](const std::string& text) -> std::string {
    try {
      RecordReader in(text);
      in.header("rec v1");
      in.line("seed");
      (void)in.u64();
      in.line("limit");
    } catch (const std::invalid_argument& caught) {
      return caught.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error("rec v1\nseed 1\nlimit\n"), "accepted");
  EXPECT_EQ(error("rec v2\nseed 1\nlimit\n"),
            "line 1: expected header 'rec v1', got 'rec v2'");
  EXPECT_EQ(error(""), "line 1: unexpected end of input, expected 'rec v1'");
  EXPECT_EQ(error("rec v1\nsed 1\nlimit\n"), "line 2: expected 'seed', got 'sed'");
  EXPECT_EQ(error("rec v1\nseed 1 2\nlimit\n"), "line 2: unread field '2' in 'seed' line");
  EXPECT_EQ(error("rec v1\nseed 1\nlimit"),
            "line 3: unexpected end of input, expected 'limit'");
  EXPECT_EQ(error("rec v1\nseed 1\nlimits\n"), "line 3: expected 'limit', got 'limits'");
}

TEST(RecordReader, FinishNeedsAnEndLineAndThenNothing) {
  const auto error = [](const std::string& text) -> std::string {
    try {
      RecordReader in(text);
      in.finish();
    } catch (const std::invalid_argument& caught) {
      return caught.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error("end\n"), "accepted");
  EXPECT_EQ(error("end"), "line 1: unexpected end of input, expected 'end'");
  EXPECT_EQ(error("end 1\n"), "line 1: unread field after 'end'");
  EXPECT_EQ(error("end\nend\n"), "line 2: unexpected bytes after 'end'");
  EXPECT_EQ(error("end\n\n"), "line 2: unexpected bytes after 'end'");
}

TEST(RecordReader, BlobNeedsItsBytesAndANewline) {
  const auto error = [](const std::string& text, std::uint64_t count) -> std::string {
    try {
      RecordReader in(text);
      in.line("blob");
      (void)in.blob(count);
      in.finish();
    } catch (const std::invalid_argument& caught) {
      return caught.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error("blob\nab\nend\n", 2), "accepted");
  EXPECT_EQ(error("blob\nabc\nend\n", 2), "line 1: expected a newline after the 2-byte blob");
  EXPECT_EQ(error("blob\nab", 2),
            "line 1: unexpected end of input, expected 2 bytes and a newline");
  EXPECT_EQ(error("blob\nab\n", std::numeric_limits<std::uint64_t>::max()),
            "line 1: unexpected end of input, expected 18446744073709551615 bytes and a newline");
  // Lines inside the blob count, so later errors still name the right line.
  EXPECT_EQ(error("blob\na\nb\n\nnot-end\n", 4), "line 5: expected 'end', got 'not-end'");
}

TEST(RecordReader, ErrorsAfterABlobNameTheLinesItSpans) {
  // Each step reads a line with u64 fields, a blob, a fail() of the
  // caller's, or the end; the first error's message is returned.
  const auto error = [](const std::string& text, const std::string& steps) -> std::string {
    try {
      RecordReader in(text);
      for (const char step : steps) {
        if (step == 'h') in.header("rec v1");
        if (step == 'n') (void)in.line("n").u64();
        if (step == 'b') (void)in.blob(in.line("blob").u64());
        if (step == 'B') (void)in.blob(3);
        if (step == 'f') in.fail("caller");
        if (step == 'e') in.finish();
      }
    } catch (const std::invalid_argument& caught) {
      return caught.what();
    }
    return "accepted";
  };
  // The line after a multi-line blob.
  EXPECT_EQ(error("rec v1\nblob 6\nx\ny\nz\n\nn 1\nbad\n", "hbne"),
            "line 8: expected 'end', got 'bad'");
  EXPECT_EQ(error("rec v1\nblob 3\na\nb\nn x\nend\n", "hbne"), "line 5: bad number 'x'");
  // The end of input right after a blob, and bytes after its 'end'.
  EXPECT_EQ(error("rec v1\nblob 3\na\nb\n", "hbe"),
            "line 5: unexpected end of input, expected 'end'");
  EXPECT_EQ(error("rec v1\nblob 3\na\nb\nend\nx", "hbe"), "line 6: unexpected bytes after 'end'");
  // A caller's fail() right after blob() names the blob's last line.
  EXPECT_EQ(error("rec v1\nblob 3\na\nb\nend\n", "hbf"), "line 4: caller");
  EXPECT_EQ(error("rec v1\nblob 4\na\nb\n\nend\n", "hbf"), "line 5: caller");
  EXPECT_EQ(error("rec v1\nblob 0\n\nend\n", "hbf"), "line 3: caller");
  EXPECT_EQ(error("rec v1\nblob 2\n\n\n\nend\n", "hbf"), "line 5: caller");
  // Before any line, and a blob at the very start, whose own errors name
  // the line before it.
  EXPECT_EQ(error("rec v1\n", "f"), "line 0: caller");
  EXPECT_EQ(error("a\nb\nend\n", "Bf"), "line 2: caller");
  EXPECT_EQ(error("a\nb\nnot-end\n", "Be"), "line 3: expected 'end', got 'not-end'");
  EXPECT_EQ(error("a\nbc\n", "B"), "line 0: expected a newline after the 3-byte blob");
}

}  // namespace
}  // namespace mf::support
