#ifndef SLIMFAST_SERVE_LINE_STREAM_H_
#define SLIMFAST_SERVE_LINE_STREAM_H_

#include <cstddef>

#include "serve/line_protocol.h"
#include "util/status.h"

namespace slimfast {

/// The longest request line the transport accepts, in bytes, not
/// counting its newline. A longer line gets one `ERR line too long`
/// reply and is discarded through its newline, so a client cannot make
/// the server buffer without bound. Every legitimate request is a few
/// dozen bytes.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// Serves `protocol` over a pair of file descriptors (the CLI passes
/// stdin and stdout): reads with read(2) into a reused buffer, answers
/// every complete line it holds, and appends each reply plus a newline
/// to a reused output buffer. The output buffer is written with write(2)
/// before every read, so no reply waits for the client's next input,
/// and before a line whose verb can wait on the ingest pipeline
/// (LineProtocol::MayWait), so no reply waits behind an fsync or a
/// relearn. At end of input a final line without a newline is answered
/// as `std::getline` would; QUIT stops reading. Returns OK at end of
/// input or QUIT, IOError when a read or write fails.
Status ServeStream(LineProtocol* protocol, int in_fd, int out_fd);

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_LINE_STREAM_H_
