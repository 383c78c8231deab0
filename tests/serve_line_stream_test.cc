// The serve transport (ServeStream) over real pipes: a server thread
// reads the request pipe and writes the reply pipe while the test
// writes requests in chosen chunks and a collector thread gathers the
// replies. The property test holds the transport to the replies of
// line-at-a-time HandleLine for any way the bytes are cut.

#include "serve/line_stream.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "test_util.h"
#include "util/random.h"

namespace slimfast {
namespace {

using namespace std::chrono_literals;

const std::string kTooLong = "ERR line too long\n";

/// A Figure 1 service with both objects learned, so QUERY and
/// POSTERIOR give VALUE and POSTERIOR replies.
std::unique_ptr<FusionService> MakeLearnedService() {
  Dataset dataset = testutil::MakeFigure1Dataset();
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  SLIMFAST_CHECK_OK(service->Submit(ChunkDatasetForReplay(dataset, 1)[0]));
  SLIMFAST_CHECK_OK(service->Drain());
  return service;
}

/// ServeStream on a thread, fed and drained through two pipes.
class StreamUnderTest {
 public:
  explicit StreamUnderTest(FusionService* service) : protocol_(service) {
    // A write after the server quit fails with EPIPE instead of
    // killing the test.
    signal(SIGPIPE, SIG_IGN);
    int in[2];
    int out[2];
    EXPECT_EQ(pipe2(in, O_CLOEXEC), 0);
    EXPECT_EQ(pipe2(out, O_CLOEXEC), 0);
    in_write_ = in[1];
    out_read_ = out[0];
    server_ = std::thread([this, in_read = in[0], out_write = out[1]] {
      status_ = ServeStream(&protocol_, in_read, out_write);
      returned_ = true;
      close(in_read);
      close(out_write);  // the collector sees end of stream
    });
    collector_ = std::thread([this] {
      char chunk[4096];
      for (;;) {
        const ssize_t n = read(out_read_, chunk, sizeof(chunk));
        if (n <= 0) break;
        std::lock_guard<std::mutex> lock(mu_);
        replies_.append(chunk, static_cast<size_t>(n));
        grew_.notify_all();
      }
    });
  }

  StreamUnderTest(const StreamUnderTest&) = delete;
  StreamUnderTest& operator=(const StreamUnderTest&) = delete;

  ~StreamUnderTest() {
    CloseInput();
    Join();
    close(out_read_);
  }

  /// Sends `bytes` in one write(2) per call (looping on short writes);
  /// drops them once the server has quit.
  void Write(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = write(in_write_, bytes.data(), bytes.size());
      if (n < 0 && errno == EPIPE) return;
      ASSERT_GT(n, 0);
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  void CloseInput() {
    if (in_write_ >= 0) close(in_write_);
    in_write_ = -1;
  }

  /// Waits for the server to return, then for every reply it wrote.
  void Join() {
    if (server_.joinable()) server_.join();
    if (collector_.joinable()) collector_.join();
  }

  /// Waits up to `timeout` for the replies so far to reach `size` bytes.
  std::string AwaitReplies(size_t size, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    grew_.wait_for(lock, timeout, [&] { return replies_.size() >= size; });
    return replies_;
  }

  /// Every reply, after the server has returned.
  std::string Replies() {
    Join();
    return replies_;
  }

  const Status& status() const { return status_; }
  bool server_returned() const { return returned_; }

 private:
  LineProtocol protocol_;
  int in_write_ = -1;
  int out_read_ = -1;
  Status status_;
  std::atomic<bool> returned_{false};
  std::mutex mu_;
  std::condition_variable grew_;
  std::string replies_;  // guarded by mu_
  std::thread server_;
  std::thread collector_;
};

/// The replies of line-at-a-time HandleLine on `input`, split the way
/// `std::getline` splits it, with the transport's line cap.
std::string LineAtATime(FusionService* service, std::string_view input) {
  LineProtocol protocol(service);
  std::string replies;
  while (!input.empty()) {
    const size_t newline = input.find('\n');
    const std::string_view line = input.substr(0, newline);
    bool quit = false;
    if (line.size() > kMaxLineBytes) {
      replies += kTooLong;
    } else {
      replies += protocol.HandleLine(line, &quit) + "\n";
    }
    if (quit || newline == std::string_view::npos) break;
    input.remove_prefix(newline + 1);
  }
  return replies;
}

TEST(ServeStreamTest, PipelinedChunkIsAnsweredInOrder) {
  auto service = MakeLearnedService();
  const std::string input =
      "QUERY 0\nPOSTERIOR 1\nOBS 0 0 1\nQUERY 7\nBOGUS\n\nTRUTH 1 1\n"
      "QUERY 1\n";
  StreamUnderTest stream(service.get());
  stream.Write(input);
  stream.CloseInput();
  const std::string replies = stream.Replies();
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  EXPECT_EQ(replies, LineAtATime(service.get(), input));
  EXPECT_EQ(replies.rfind("VALUE 0 ", 0), 0u) << replies;
  service->Stop();
}

TEST(ServeStreamTest, LineSplitAcrossWritesIsAnsweredOnce) {
  auto service = MakeLearnedService();
  const std::string expected = LineAtATime(service.get(), "QUERY 1\n");
  StreamUnderTest stream(service.get());
  stream.Write("QUER");
  EXPECT_EQ(stream.AwaitReplies(1, 50ms), "");  // half a line: no reply
  stream.Write("Y 1\n");
  EXPECT_EQ(stream.AwaitReplies(expected.size(), 10s), expected);
  stream.CloseInput();
  EXPECT_EQ(stream.Replies(), expected);
  service->Stop();
}

TEST(ServeStreamTest, FinalLineWithoutNewlineIsAnsweredAtEof) {
  auto service = MakeLearnedService();
  StreamUnderTest stream(service.get());
  stream.Write("QUERY 0\r\nPOSTERIOR 0");
  stream.CloseInput();
  const std::string replies = stream.Replies();
  EXPECT_EQ(replies, LineAtATime(service.get(), "QUERY 0\nPOSTERIOR 0\n"));
  EXPECT_NE(replies.find("\nPOSTERIOR "), std::string::npos) << replies;
  service->Stop();
}

TEST(ServeStreamTest, RepliesAreNotHeldWhileInputStaysOpen) {
  auto service = MakeLearnedService();
  const std::string expected =
      LineAtATime(service.get(), "QUERY 0\nQUERY 1\nSTATS now\n");
  StreamUnderTest stream(service.get());
  // Each reply must arrive while the request pipe stays open and
  // silent: the server may not wait for more input to send it.
  stream.Write("QUERY 0\nQUERY 1\n");
  const size_t first = expected.find("\nERR") + 1;
  EXPECT_EQ(stream.AwaitReplies(first, 10s), expected.substr(0, first));
  stream.Write("STATS now\n");
  EXPECT_EQ(stream.AwaitReplies(expected.size(), 10s), expected);
  EXPECT_FALSE(stream.server_returned());
  stream.CloseInput();
  EXPECT_EQ(stream.Replies(), expected);
  service->Stop();
}

TEST(ServeStreamTest, QuitIgnoresTheRestOfTheInput) {
  auto service = MakeLearnedService();
  StreamUnderTest stream(service.get());
  stream.Write("QUERY 0\nQUIT\nQUERY 1\nOBS 0 0 0\n");
  // The server returns on QUIT with its input still open.
  const std::string replies = stream.Replies();
  EXPECT_TRUE(stream.status().ok());
  EXPECT_EQ(replies, LineAtATime(service.get(), "QUERY 0\nQUIT\n"));
  EXPECT_EQ(replies.substr(replies.size() - 4), "BYE\n");
  service->Stop();
}

TEST(ServeStreamTest, OverLongLineGetsOneErrAndTheNextLineIsAnswered) {
  auto service = MakeLearnedService();
  StreamUnderTest stream(service.get());
  const std::string chunk(4096, 'x');
  for (size_t sent = 0; sent < 5 * kMaxLineBytes; sent += chunk.size()) {
    stream.Write(chunk);
  }
  // Answered as soon as the line passes the cap, before its newline.
  EXPECT_EQ(stream.AwaitReplies(kTooLong.size(), 10s), kTooLong);
  stream.Write("\nQUERY 0\n");
  stream.Write(std::string(kMaxLineBytes, ' ') + "\n");  // at the cap
  stream.Write(std::string(kMaxLineBytes + 1, ' ') + "\nQUERY 1");
  stream.CloseInput();
  EXPECT_EQ(stream.Replies(),
            kTooLong + LineAtATime(service.get(), "QUERY 0\n\n") + kTooLong +
                LineAtATime(service.get(), "QUERY 1"));
  service->Stop();
}

// The verbs before which the transport sends every held reply: the
// ones that can wait on the ingest pipeline, however the line is
// spaced.
TEST(ServeStreamTest, MayWaitNamesTheVerbsThatWaitOnIngest) {
  for (const char* line : {"COMMIT", "DRAIN", "CHECKPOINT", " COMMIT\r",
                           "\tDRAIN x", "CHECKPOINT now"}) {
    EXPECT_TRUE(LineProtocol::MayWait(line)) << line;
  }
  for (const char* line : {"", " ", "QUERY 1", "OBS 0 0 0", "STATS",
                           "commit", "COMMITS", "DRAIN\a", "QUIT"}) {
    EXPECT_FALSE(LineProtocol::MayWait(line)) << line;
  }
}

/// One random request line: mostly protocol lines with odd spacing,
/// some raw bytes, and now and then a line at or past the cap.
std::string RandomLine(Rng& rng) {
  static const char* const kBlanks[] = {" ", "  ", "\t", " \t", "\v", "\f"};
  static const char* const kVerbs[] = {"QUERY", "POSTERIOR", "OBS", "TRUTH",
                                       "query", "FROB"};
  auto blank = [&] { return std::string(kBlanks[rng.UniformInt(6)]); };
  const double kind = rng.Uniform();
  std::string line;
  if (kind < 0.7) {
    if (rng.Bernoulli(0.2)) line += blank();
    line += kVerbs[rng.UniformInt(6)];
    const int64_t args = rng.UniformInt(5);
    for (int64_t a = 0; a < args; ++a) {
      line += blank();
      line += std::to_string(rng.UniformInt(4));
    }
    if (rng.Bernoulli(0.2)) line += blank();
  } else if (kind < 0.95) {
    static const char kBytes[] = {' ', '\t', '\r', '\0', '0', '1', 'Q',
                                  'U', 'E', 'R', 'Y', 'x', '\x80', '\xff'};
    const int64_t length = rng.UniformInt(12);
    for (int64_t i = 0; i < length; ++i) {
      line += kBytes[rng.UniformInt(sizeof(kBytes))];
    }
  } else if (kind < 0.985) {
    line = "QUERY 1" + std::string(kMaxLineBytes - 7, ' ');  // at the cap
  } else if (kind < 0.995) {
    line = std::string(kMaxLineBytes + 1 + rng.UniformInt(3 * kMaxLineBytes),
                       'z');
  } else {
    line = "QUIT";
  }
  if (rng.Bernoulli(0.2)) line += '\r';
  return line;
}

TEST(ServeStreamTest, AnyChunkingGivesTheLineAtATimeReplies) {
  auto service = MakeLearnedService();
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    std::string input;
    const int64_t lines = 1 + rng.UniformInt(300);
    for (int64_t i = 0; i < lines; ++i) input += RandomLine(rng) + "\n";
    if (rng.Bernoulli(0.5)) input.pop_back();  // unterminated final line

    StreamUnderTest stream(service.get());
    // Small chunks split lines and CRLF pairs; large ones carry many
    // lines per read.
    const int64_t max_chunk = rng.Bernoulli(0.5) ? 16 : 100000;
    for (size_t sent = 0; sent < input.size();) {
      const size_t n =
          std::min<size_t>(input.size() - sent,
                           1 + static_cast<size_t>(rng.UniformInt(max_chunk)));
      stream.Write(std::string_view(input).substr(sent, n));
      sent += n;
    }
    stream.CloseInput();
    const std::string replies = stream.Replies();
    EXPECT_TRUE(stream.status().ok()) << "seed " << seed;
    ASSERT_EQ(replies, LineAtATime(service.get(), input)) << "seed " << seed;
  }
  service->Stop();
}

}  // namespace
}  // namespace slimfast
