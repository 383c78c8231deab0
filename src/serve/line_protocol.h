#ifndef SLIMFAST_SERVE_LINE_PROTOCOL_H_
#define SLIMFAST_SERVE_LINE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/observation_store.h"
#include "serve/fusion_service.h"

namespace slimfast {

/// The text protocol behind `slimfast_cli serve`: one command per line,
/// one reply line per command. Decoupled from any transport — the CLI
/// drives it from stdin through ServeStream (serve/line_stream.h), a
/// socket server would drive it per connection, and the tests drive it
/// directly.
///
/// Commands (ids are the dense integer ids of the service's universe):
///
///   OBS <object> <source> <value>   buffer one observation   -> OK
///   TRUTH <object> <value>          buffer one truth label   -> OK
///   COMMIT                          submit buffered batch    -> OK n m
///   QUERY <object>                  current MAP estimate     -> VALUE v c
///                                   (c = posterior confidence) or NONE
///   POSTERIOR <object>              posterior distribution   -> POSTERIOR
///                                   v:p v:p ... or NONE
///   STATS                           service counters         -> STATS ...
///   METRICS                         Prometheus dump          -> multi-line,
///                                   "# EOF" terminated
///   HEALTH                          SLO watchdog verdict     -> OK or
///                                   DEGRADED <rule>[,<rule>...]
///   HISTORY [series] [window]       flight-recorder          -> multi-line,
///                                   time-series (bare HISTORY lists the
///                                   series names), "# EOF" terminated
///   EVENTS [n]                      recent structured events -> multi-line,
///                                   "# EOF" terminated
///   SLOW [n]                        slow-operation exemplars -> multi-line,
///                                   "# EOF" terminated
///   SCHED                           scheduler + admission    -> SCHED ...
///                                   state (per-shard priorities)
///   CHECKPOINT                      durable checkpoint + WAL -> OK
///                                   truncation (needs wal_dir)
///   DRAIN                           block until applied      -> OK
///   QUIT                            end the session          -> BYE
///
/// Malformed or unknown input gets a single `ERR <reason>` reply and
/// leaves all state unchanged. When admission control is configured
/// (see SchedulerOptions) an over-watermark COMMIT is shed with
/// `ERR BUSY retry_after_ms=<hint> ...` and the client's buffer is
/// kept for retry. Queries go straight to the wait-free snapshot path;
/// only COMMIT/DRAIN touch the ingest pipeline.
///
/// The full protocol reference (grammar, reply shapes, ordering and
/// ack semantics, a worked transcript) lives in docs/PROTOCOL.md.
class LineProtocol {
 public:
  /// Binds the protocol to `service` (borrowed; must outlive this).
  explicit LineProtocol(FusionService* service) : service_(service) {}

  /// Executes one command line and appends its reply to `*out` (no
  /// trailing newline; METRICS replies span multiple lines, terminated
  /// by a "# EOF" line). Tokens are split on the six C-locale
  /// whitespace bytes, so a CRLF client's trailing carriage return is a
  /// blank. Sets `*quit` to true on QUIT when `quit` is non-null. When
  /// observability is enabled the verb's wall time is recorded into
  /// slimfast_serve_verb_latency_seconds{verb=...}.
  void HandleLine(std::string_view line, std::string* out, bool* quit);

  /// The reply to one command line, as its own string.
  std::string HandleLine(std::string_view line, bool* quit = nullptr) {
    std::string reply;
    HandleLine(line, &reply, quit);
    return reply;
  }

  /// True when `line`'s verb can wait on the ingest pipeline (COMMIT,
  /// DRAIN, CHECKPOINT): a transport sends every reply it holds before
  /// handling such a line.
  static bool MayWait(std::string_view line);

  /// Observations + truths buffered toward the next COMMIT.
  int64_t buffered() const { return pending_.size(); }

 private:
  class Args;

  /// HandleLine minus the tokenizer and the verb-latency envelope. The
  /// read verbs (QUERY, POSTERIOR) format straight into `*out`; the
  /// others go through Reply.
  void Execute(std::string_view command, const Args& args, std::string* out,
               bool* quit);
  /// The reply of every verb other than QUERY and POSTERIOR.
  std::string Reply(std::string_view command, const Args& args, bool* quit);

  FusionService* service_;
  ObservationBatch pending_;
  /// POSTERIOR's scratch, reused across lines.
  std::vector<ValueId> posterior_values_;
  std::vector<double> posterior_probs_;
};

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_LINE_PROTOCOL_H_
