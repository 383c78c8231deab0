#include "serve/line_stream.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace slimfast {

namespace {

/// Bytes asked of each read(2).
constexpr size_t kReadBytes = 64 * 1024;

/// Reply bytes that force a write even while more input waits to be
/// answered. It bounds the output buffer; it never delays a reply.
constexpr size_t kMaxHeldReplyBytes = 64 * 1024;

constexpr std::string_view kLineTooLong = "ERR line too long\n";

/// One served stream: the two buffers and the state between reads.
class LineStream {
 public:
  LineStream(LineProtocol* protocol, int in_fd, int out_fd)
      : protocol_(protocol),
        in_fd_(in_fd),
        out_fd_(out_fd),
        in_(new char[kMaxLineBytes + kReadBytes]) {}

  Status Run() {
    while (!quit_) {
      SLIMFAST_RETURN_NOT_OK(AnswerCompleteLines());
      if (quit_) break;
      // What is left is part of one line. Past the cap it is answered
      // now and dropped through its newline, so the buffer stays
      // bounded and a read always has kReadBytes of room.
      if (end_ - begin_ > kMaxLineBytes) {
        if (!discarding_) out_.append(kLineTooLong);
        discarding_ = true;
        begin_ = end_ = 0;
      }
      SLIMFAST_RETURN_NOT_OK(Flush());  // the read below may block
      std::memmove(in_.get(), in_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      const ssize_t n = read(in_fd_, in_.get() + end_, kReadBytes);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Status::IOError(std::string("read: ") + Errno());
      if (n == 0) {  // end of input: answer a final unterminated line
        if (end_ > begin_ && !discarding_) {
          SLIMFAST_RETURN_NOT_OK(Answer(Pending(end_)));
        }
        break;
      }
      end_ += static_cast<size_t>(n);
    }
    return Flush();
  }

 private:
  static std::string Errno() { return std::strerror(errno); }

  /// The unconsumed input up to (not including) offset `stop`.
  std::string_view Pending(size_t stop) const {
    return std::string_view(in_.get() + begin_, stop - begin_);
  }

  Status AnswerCompleteLines() {
    while (!quit_) {
      const void* newline =
          std::memchr(in_.get() + begin_, '\n', end_ - begin_);
      if (newline == nullptr) break;
      const size_t stop =
          static_cast<size_t>(static_cast<const char*>(newline) - in_.get());
      if (discarding_) {
        discarding_ = false;  // the tail of an over-long line
      } else {
        SLIMFAST_RETURN_NOT_OK(Answer(Pending(stop)));
      }
      begin_ = stop + 1;
    }
    return Status::OK();
  }

  Status Answer(std::string_view line) {
    if (line.size() > kMaxLineBytes) {
      out_.append(kLineTooLong);
      return Status::OK();
    }
    if (LineProtocol::MayWait(line)) SLIMFAST_RETURN_NOT_OK(Flush());
    protocol_->HandleLine(line, &out_, &quit_);
    out_.push_back('\n');
    return out_.size() >= kMaxHeldReplyBytes ? Flush() : Status::OK();
  }

  /// Writes every held reply, looping on short writes and EINTR.
  Status Flush() {
    size_t done = 0;
    while (done < out_.size()) {
      const ssize_t n = write(out_fd_, out_.data() + done, out_.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Status::IOError(std::string("write: ") + Errno());
      done += static_cast<size_t>(n);
    }
    out_.clear();
    return Status::OK();
  }

  LineProtocol* const protocol_;
  const int in_fd_;
  const int out_fd_;
  /// Unconsumed input is [begin_, end_) of in_.
  const std::unique_ptr<char[]> in_;
  size_t begin_ = 0;
  size_t end_ = 0;
  std::string out_;
  bool quit_ = false;
  /// Inside an over-long line that was already answered: its bytes are
  /// dropped up to and including the next newline.
  bool discarding_ = false;
};

}  // namespace

Status ServeStream(LineProtocol* protocol, int in_fd, int out_fd) {
  return LineStream(protocol, in_fd, out_fd).Run();
}

}  // namespace slimfast
