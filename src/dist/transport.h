#ifndef WARPLDA_DIST_TRANSPORT_H_
#define WARPLDA_DIST_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/fault.h"
#include "util/contracts.h"

namespace warplda {

/// Reliable, ordered message channel over one stream socket — the transport
/// behind the distributed grid executor (dist/dist_executor.h).
///
/// Wire format: every message is one util/checkpoint_io frame (magic,
/// version, endian tag, CRC-32 over the payload) of kind kDistMessage. The
/// frame payload opens with a channel header
///
///   u32 channel message type (data / ack / nak / ping)
///   u64 sequence number (data) or cumulative sequence (ack / nak)
///   u32 application message type (data frames only)
///
/// followed by the application body.
///
/// Robustness envelope (every edge the fault injector can poke):
///  * reliability — data frames carry consecutive sequence numbers and stay
///    buffered until cumulatively acked; a retransmit timer with bounded
///    exponential backoff (rto_initial_ms doubling to rto_max_ms,
///    max_retransmits attempts) resends unacked frames, go-back-N style;
///  * CRC reject-and-renegotiate — a frame whose payload fails the CRC is
///    dropped and answered with a NAK of the last in-order sequence, which
///    triggers immediate retransmission of everything after it;
///  * duplicate suppression — a data frame at or below the delivered
///    sequence is re-acked (the peer's retransmit means our ack was lost)
///    but never redelivered to the application;
///  * heartbeats — an idle sender emits ping frames every keepalive_ms, so
///    a receiver can distinguish "peer busy computing" (pings arriving)
///    from "peer dead" (silence + EOF);
///  * death detection — EOF, a write error (EPIPE after a SIGKILL'd peer),
///    a malformed header (framing lost), or retransmit exhaustion marks the
///    channel dead with a reason; senders/receivers observe it immediately.
///
/// Threading: one io thread per channel owns the socket (nonblocking, poll
/// driven). Send() enqueues and wakes it; Receive() blocks on the delivery
/// queue. Any thread may call Send/Receive; the io thread never calls user
/// code. State shared between threads is mutex-guarded; the stream-parse
/// state (rx buffer, delivered and NAKed sequence numbers) belongs to the
/// io thread alone (TSan-clean by construction).
///
/// Data path: every byte costs one CRC pass and one user-space copy per
/// direction, and the CRC never runs under `mutex_`.
///  * Send() encodes frame header, channel header and body once, into the
///    frame's own wire buffer, under `send_mutex_` (which serializes
///    concurrent senders so frames enter the window in sequence order);
///    `mutex_` covers only the enqueue. The io thread writes straight from
///    those buffers with sendmsg(), a cursor marking partial writes.
///  * The io thread reads straight into its stream buffer, checks CRCs and
///    copies each payload into its Message outside `mutex_`, then takes the
///    lock once per read batch to publish the results.
class FrameChannel {
 public:
  struct Options {
    /// Stream-read allocation bound (no file size exists to validate
    /// against). Sized for a worst-case sweep checkpoint message.
    uint64_t max_payload_bytes = 1ull << 30;
    uint32_t rto_initial_ms = 40;   ///< first retransmit backoff
    uint32_t rto_max_ms = 1000;     ///< backoff ceiling
    uint32_t max_retransmits = 12;  ///< per frame; exhaustion = peer dead
    uint32_t keepalive_ms = 50;     ///< idle ping period; 0 disables
    /// Outbound fault injection (first transmission of data frames only).
    FaultSpec fault;
    std::string peer = "peer";  ///< label for errors and metrics
  };

  /// Transport counters, all monotonic. The fault-matrix tests assert the
  /// envelope from these: every injected fault shows up (crc_rejects,
  /// dup_suppressed, retransmits) and stays bounded.
  struct Stats {
    uint64_t frames_sent = 0;      ///< data frames handed to the socket
    uint64_t frames_received = 0;  ///< data frames delivered in order
    uint64_t bytes_sent = 0;       ///< wire bytes, all frame kinds
    uint64_t bytes_received = 0;
    uint64_t retransmits = 0;      ///< data frame re-sends (timer or NAK)
    uint64_t crc_rejects = 0;      ///< frames dropped for a bad payload CRC
    uint64_t dup_suppressed = 0;   ///< duplicate data frames re-acked
    uint64_t naks_sent = 0;
    uint64_t naks_received = 0;
    uint64_t faults_injected = 0;  ///< outbound faults the injector fired
  };

  struct Message {
    uint32_t type = 0;          ///< application message type
    std::vector<uint8_t> body;  ///< application payload
  };

  enum class RecvStatus { kOk, kTimeout, kClosed };

  /// Takes ownership of `fd` (a connected stream socket). The io thread
  /// starts immediately — in a forked-worker design, construct only after
  /// every fork() (fork from a multithreaded process is where sanitizers
  /// and POSIX stop making promises).
  FrameChannel(int fd, Options options);
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Enqueues a data message; `body` is copied once, into the frame. Returns
  /// false when the channel is dead (the message will never be delivered).
  /// Never blocks on the socket.
  bool Send(uint32_t type, const std::vector<uint8_t>& body);

  /// Blocks up to `timeout_ms` for the next in-order message. kClosed means
  /// dead AND drained — messages delivered before death are still returned.
  RecvStatus Receive(Message* out, uint32_t timeout_ms);

  /// Nonblocking Receive.
  bool TryReceive(Message* out);

  /// False once the peer is unreachable (EOF, write error, retransmit
  /// exhaustion, lost framing).
  bool alive() const;

  /// Why the channel died ("" while alive).
  std::string death_reason() const;

  /// Milliseconds since any frame (including pings) arrived — the
  /// heartbeat-timeout input for death detection.
  int64_t ms_since_last_rx() const;

  /// Blocks until every queued frame has been handed to the socket (not
  /// necessarily acked) or the channel dies. The shutdown path uses this so
  /// the final message is on the wire before the fd closes.
  bool DrainSends(uint32_t timeout_ms);

  Stats stats() const;

  /// Closes the socket and stops the io thread (idempotent). Queued but
  /// undelivered messages are dropped.
  void Close();

 private:
  using Wire = std::shared_ptr<const std::vector<uint8_t>>;

  struct Inflight {
    uint64_t seq = 0;
    Wire wire;                   ///< encoded frame, ready to resend
    int64_t next_deadline_ms = 0;
    uint32_t attempts = 0;       ///< transmissions so far
    uint32_t backoff_ms = 0;
    bool sent_once = false;      ///< false until first transmission
    int64_t hold_until_ms = 0;   ///< kDelay fault: do not send before this
  };

  /// One frame queued for the socket. The buffer is shared with its
  /// Inflight entry, so an ack that retires the frame mid-write is safe.
  struct TxSegment {
    Wire wire;
    size_t written = 0;  ///< bytes of `wire` already handed to the socket
  };

  /// What one parse pass over the stream buffer found. Built by the io
  /// thread without `mutex_`, published under it by ApplyRxLocked.
  struct RxBatch {
    size_t bytes_read = 0;
    std::vector<Message> delivered;  ///< in order
    /// Peer acks / naks (channel type, cumulative seq), in stream order.
    std::vector<std::pair<uint32_t, uint64_t>> peer_control;
    std::vector<uint64_t> naks_to_send;  ///< cumulative seqs, in order
    uint64_t crc_rejects = 0;
    uint64_t dup_suppressed = 0;
    bool ack = false;       ///< delivered or re-acked anything
    std::string fatal;      ///< framing lost: why ("" when intact)
  };

  void IoLoop();
  void MarkDeadLocked(const std::string& reason);
  void TransmitDueLocked(int64_t now);
  void QueueControlLocked(uint32_t ctl, uint64_t seq);
  void FlushWritesLocked();
  size_t ReadAvailable(std::string* error);
  void ParseFrames(RxBatch* batch);
  void ParsePayload(const uint8_t* payload, size_t size, RxBatch* batch);
  void ApplyRxLocked(RxBatch& batch);

  /// Fixed at construction; Close() only tears down the descriptors.
  WARP_IMMUTABLE_AFTER(FrameChannel) Options options_;
  WARP_IMMUTABLE_AFTER(FrameChannel, Close) int fd_ = -1;
  WARP_IMMUTABLE_AFTER(FrameChannel, Close) int wake_pipe_[2] = {-1, -1};

  /// Held across a whole Send(): one frame builder at a time, so sequence
  /// numbers enter `inflight_` in order while `mutex_` stays free.
  std::mutex send_mutex_;
  uint64_t next_seq_ = 1;  ///< guarded by send_mutex_

  mutable std::mutex mutex_;
  std::condition_variable rx_cv_;
  std::condition_variable drain_cv_;
  bool dead_ = false;
  bool closing_ = false;
  std::string death_reason_;

  // TX state (io thread + Send under mutex_).
  std::deque<Inflight> inflight_;  ///< unacked, seq ascending
  std::deque<TxSegment> tx_queue_;  ///< frames not yet fully written
  int64_t last_tx_ms_ = 0;

  // RX state shared with receivers.
  std::deque<Message> rx_queue_;
  int64_t last_rx_ms_ = 0;

  // RX stream state, touched only by the io thread (no lock).
  std::vector<uint8_t> rx_buffer_;  ///< [0, rx_size_) holds unparsed bytes
  size_t rx_size_ = 0;
  uint64_t delivered_seq_ = 0;      ///< highest in-order data seq delivered
  /// Last cumulative seq we NAKed, or ~0 if delivery has advanced since.
  /// One gap produces one NAK — re-NAKing on every out-of-order arrival
  /// would retransmit the whole window per arrival (a NAK storm).
  uint64_t last_nak_cum_ = ~0ULL;

  FaultInjector fault_;
  Stats stats_;
  WARP_IMMUTABLE_AFTER(FrameChannel) std::thread io_thread_;
};

/// Socket helpers for the executor (all loopback/local, all with the
/// timeout + EINTR discipline the robustness envelope requires).

/// A connected AF_UNIX socketpair (SOCK_STREAM); returns false + errno text
/// on failure. The default transport between a coordinator and its forked
/// workers.
bool MakeSocketPair(int fds[2], std::string* error);

/// Loopback TCP with real connect/accept edges, for exercising the
/// timeout/retry envelope over an actual network stack: listener on
/// 127.0.0.1:ephemeral (returns the port), accept with a deadline, connect
/// with a deadline + bounded exponential-backoff retry.
int ListenLoopback(uint16_t* port, std::string* error);
int AcceptWithTimeout(int listen_fd, uint32_t timeout_ms, std::string* error);
int ConnectLoopback(uint16_t port, uint32_t timeout_ms, std::string* error);

}  // namespace warplda

#endif  // WARPLDA_DIST_TRANSPORT_H_
