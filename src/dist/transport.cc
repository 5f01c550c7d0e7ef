#include "dist/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "util/checkpoint_io.h"
#include "util/crc32.h"

namespace warplda {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Channel-level frame types inside the kDistMessage payload.
constexpr uint32_t kCtlData = 1;
constexpr uint32_t kCtlAck = 2;
constexpr uint32_t kCtlNak = 3;
constexpr uint32_t kCtlPing = 4;

/// u32 ctl + u64 seq (+ u32 app type for data frames).
constexpr size_t kChannelHeaderBytes = sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kDataHeaderBytes = kChannelHeaderBytes + sizeof(uint32_t);

/// Frames gathered into one sendmsg() call.
constexpr size_t kMaxWriteSegments = 64;
/// Free stream-buffer space guaranteed before each read().
constexpr size_t kReadChunkBytes = 64 * 1024;
/// Bytes read per io-loop pass before parsing, so acks and retransmits
/// never wait behind an unbounded read burst.
constexpr size_t kMaxReadBatchBytes = 4 << 20;

/// One complete kDistMessage frame — frame header, channel header (the app
/// type on data frames only), then `body` — built in one buffer: the body
/// is copied once and checksummed once.
std::vector<uint8_t> EncodeChannelFrame(uint32_t ctl, uint64_t seq,
                                        uint32_t app_type,
                                        const uint8_t* body,
                                        size_t body_size) {
  const size_t prefix =
      ctl == kCtlData ? kDataHeaderBytes : kChannelHeaderBytes;
  std::vector<uint8_t> wire;
  wire.reserve(kFrameHeaderBytes + prefix + body_size);
  wire.resize(kFrameHeaderBytes + prefix);
  uint8_t* channel_header = wire.data() + kFrameHeaderBytes;
  std::memcpy(channel_header, &ctl, sizeof(ctl));
  std::memcpy(channel_header + sizeof(ctl), &seq, sizeof(seq));
  if (ctl == kCtlData) {
    std::memcpy(channel_header + kChannelHeaderBytes, &app_type,
                sizeof(app_type));
  }
  if (body_size > 0) wire.insert(wire.end(), body, body + body_size);
  EncodeFrameHeader(FrameKind::kDistMessage, wire.data() + kFrameHeaderBytes,
                    wire.size() - kFrameHeaderBytes, wire.data());
  return wire;
}

/// Transport counters in the global registry, mirroring FrameChannel::Stats
/// so the fault-matrix tests can assert the envelope (bounded retransmits,
/// every injected corruption caught) from the obs seam.
struct TransportMetrics {
  obs::Counter* frames_sent;
  obs::Counter* retransmits;
  obs::Counter* crc_rejects;
  obs::Counter* dup_suppressed;
  obs::Counter* faults_injected;

  static const TransportMetrics& Get() {
    static const TransportMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      TransportMetrics tm;
      tm.frames_sent = reg.GetCounter("dist_frames_sent_total",
                                      "Data frames sent over dist channels");
      tm.retransmits = reg.GetCounter(
          "dist_retransmits_total",
          "Data frame retransmissions (timer expiry or peer NAK)");
      tm.crc_rejects = reg.GetCounter(
          "dist_crc_rejects_total",
          "Received frames dropped for a payload CRC mismatch");
      tm.dup_suppressed = reg.GetCounter(
          "dist_dup_frames_total",
          "Duplicate data frames suppressed (re-acked, not redelivered)");
      tm.faults_injected = reg.GetCounter(
          "dist_faults_injected_total",
          "Outbound faults injected by dist/fault.h");
      return tm;
    }();
    return m;
  }
};

}  // namespace

FrameChannel::FrameChannel(int fd, Options options)
    : options_(std::move(options)), fd_(fd), fault_(options_.fault) {
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
    ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  }
  const int64_t now = NowMs();
  last_rx_ms_ = now;
  last_tx_ms_ = now;
  io_thread_ = std::thread([this] { IoLoop(); });
}

FrameChannel::~FrameChannel() { Close(); }

void FrameChannel::Close() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closing_) {
      lock.unlock();
      if (io_thread_.joinable()) io_thread_.join();
      return;
    }
    closing_ = true;
  }
  if (wake_pipe_[1] >= 0) {
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!dead_) MarkDeadLocked("channel closed");
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
}

bool FrameChannel::Send(uint32_t type, const std::vector<uint8_t>& body) {
  std::unique_lock<std::mutex> builder(send_mutex_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (dead_ || closing_) return false;
  }
  // Build and checksum the frame with mutex_ free: the io thread keeps
  // reading, acking and writing meanwhile.
  Wire wire = std::make_shared<const std::vector<uint8_t>>(
      EncodeChannelFrame(kCtlData, next_seq_, type, body.data(), body.size()));
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (dead_ || closing_) return false;
    Inflight frame;
    frame.seq = next_seq_;
    frame.wire = std::move(wire);
    inflight_.push_back(std::move(frame));
  }
  ++next_seq_;
  if (wake_pipe_[1] >= 0) {
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  return true;
}

FrameChannel::RecvStatus FrameChannel::Receive(Message* out,
                                               uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  rx_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                  [&] { return !rx_queue_.empty() || dead_; });
  if (!rx_queue_.empty()) {
    *out = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    return RecvStatus::kOk;
  }
  return dead_ ? RecvStatus::kClosed : RecvStatus::kTimeout;
}

bool FrameChannel::TryReceive(Message* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (rx_queue_.empty()) return false;
  *out = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return true;
}

bool FrameChannel::alive() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return !dead_;
}

std::string FrameChannel::death_reason() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return death_reason_;
}

int64_t FrameChannel::ms_since_last_rx() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return NowMs() - last_rx_ms_;
}

bool FrameChannel::DrainSends(uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return drain_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return dead_ || (inflight_.empty() && tx_queue_.empty()); });
}

FrameChannel::Stats FrameChannel::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

void FrameChannel::MarkDeadLocked(const std::string& reason) {
  if (dead_) return;
  dead_ = true;
  death_reason_ = "channel to " + options_.peer + ": " + reason;
  rx_cv_.notify_all();
  drain_cv_.notify_all();
}

void FrameChannel::QueueControlLocked(uint32_t ctl, uint64_t seq) {
  tx_queue_.push_back(
      {std::make_shared<const std::vector<uint8_t>>(
           EncodeChannelFrame(ctl, seq, 0, nullptr, 0)),
       0});
}

void FrameChannel::FlushWritesLocked() {
  bool wrote = false;
  while (!tx_queue_.empty()) {
    struct iovec iov[kMaxWriteSegments];
    size_t count = 0;
    for (auto it = tx_queue_.begin();
         it != tx_queue_.end() && count < kMaxWriteSegments; ++it, ++count) {
      iov[count].iov_base = const_cast<uint8_t*>(it->wire->data()) + it->written;
      iov[count].iov_len = it->wire->size() - it->written;
    }
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: writing to a socket whose peer was SIGKILL'd must
    // surface as EPIPE (→ channel death), not take the process down.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      MarkDeadLocked(Errno("write failed"));
      tx_queue_.clear();
      return;
    }
    if (n == 0) break;
    wrote = true;
    stats_.bytes_sent += static_cast<uint64_t>(n);
    // Retire fully written frames; the cursor keeps a partial one.
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      TxSegment& front = tx_queue_.front();
      const size_t rest = front.wire->size() - front.written;
      if (left < rest) {
        front.written += left;
        break;
      }
      left -= rest;
      tx_queue_.pop_front();
    }
  }
  if (wrote) {
    last_tx_ms_ = NowMs();
    if (tx_queue_.empty() && inflight_.empty()) drain_cv_.notify_all();
  }
}

void FrameChannel::TransmitDueLocked(int64_t now) {
  // Transmit pass over the inflight window, in sequence order.
  for (Inflight& f : inflight_) {
    if (!f.sent_once) {
      if (f.attempts == 0 && f.hold_until_ms == 0) {
        // First consideration: decide this frame's fault, once.
        const FaultAction action = fault_.Decide(f.seq);
        if (action != FaultAction::kNone) {
          ++stats_.faults_injected;
          if (obs::MetricsEnabled()) {
            TransportMetrics::Get().faults_injected->Inc();
          }
        }
        switch (action) {
          case FaultAction::kDrop:
            // Silently not sent; the retransmit timer recovers it.
            f.sent_once = true;
            f.attempts = 1;
            f.backoff_ms = options_.rto_initial_ms;
            f.next_deadline_ms = now + f.backoff_ms;
            continue;
          case FaultAction::kCorrupt: {
            // Flip payload bytes (past the frame header) in a sent copy;
            // the original stays intact for the retransmit the receiver's
            // NAK will trigger.
            auto mutated = std::make_shared<std::vector<uint8_t>>(*f.wire);
            fault_.CorruptPayload(f.seq, mutated->data() + kFrameHeaderBytes,
                                  mutated->size() - kFrameHeaderBytes);
            tx_queue_.push_back({std::move(mutated), 0});
            break;
          }
          case FaultAction::kDuplicate:
            tx_queue_.push_back({f.wire, 0});
            tx_queue_.push_back({f.wire, 0});
            break;
          case FaultAction::kDelay:
            f.hold_until_ms = now + options_.fault.delay_ms;
            continue;  // sent when the hold expires
          case FaultAction::kNone:
            tx_queue_.push_back({f.wire, 0});
            break;
        }
        f.sent_once = true;
        f.attempts = 1;
        f.backoff_ms = options_.rto_initial_ms;
        f.next_deadline_ms = now + f.backoff_ms;
        ++stats_.frames_sent;
        if (obs::MetricsEnabled()) TransportMetrics::Get().frames_sent->Inc();
      } else if (f.hold_until_ms != 0 && now >= f.hold_until_ms) {
        // Delayed frame: send clean now.
        tx_queue_.push_back({f.wire, 0});
        f.sent_once = true;
        f.attempts = 1;
        f.backoff_ms = options_.rto_initial_ms;
        f.next_deadline_ms = now + f.backoff_ms;
        ++stats_.frames_sent;
        if (obs::MetricsEnabled()) TransportMetrics::Get().frames_sent->Inc();
      }
    } else if (now >= f.next_deadline_ms) {
      // Bounded exponential backoff; exhaustion declares the peer dead (the
      // executor's recovery path takes over from there).
      if (f.attempts > options_.max_retransmits) {
        MarkDeadLocked("retransmit limit (" +
                       std::to_string(options_.max_retransmits) +
                       ") exhausted for frame " + std::to_string(f.seq));
        return;
      }
      tx_queue_.push_back({f.wire, 0});
      ++f.attempts;
      ++stats_.retransmits;
      if (obs::MetricsEnabled()) TransportMetrics::Get().retransmits->Inc();
      f.backoff_ms = std::min(f.backoff_ms * 2, options_.rto_max_ms);
      f.next_deadline_ms = now + f.backoff_ms;
    }
  }
}

size_t FrameChannel::ReadAvailable(std::string* error) {
  // Read straight into the stream buffer until the socket runs dry (or one
  // batch's worth arrived, so acks never wait behind an endless burst).
  size_t batch = 0;
  while (batch < kMaxReadBatchBytes) {
    if (rx_buffer_.size() - rx_size_ < kReadChunkBytes) {
      // Grow to the full capacity the vector already holds, so later
      // reads reuse it without zero-filling anew.
      rx_buffer_.resize(
          std::max(rx_size_ + kReadChunkBytes, rx_buffer_.capacity()));
    }
    const ssize_t n = ::read(fd_, rx_buffer_.data() + rx_size_,
                             rx_buffer_.size() - rx_size_);
    if (n > 0) {
      rx_size_ += static_cast<size_t>(n);
      batch += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      *error = "EOF from peer";
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    *error = Errno("read failed");
    break;
  }
  return batch;
}

void FrameChannel::ParseFrames(RxBatch* batch) {
  // Complete frames out of the stream buffer, by cursor. A malformed header
  // means framing is lost for good (only payload corruption is survivable
  // — the CRC covers it); the channel is torn down.
  size_t cursor = 0;
  while (rx_size_ - cursor >= kFrameHeaderBytes && batch->fatal.empty()) {
    ParsedFrameHeader header;
    std::string header_error;
    if (!ParseFrameHeader(rx_buffer_.data() + cursor, &header,
                          &header_error)) {
      batch->fatal = "lost framing: " + header_error;
      break;
    }
    if (header.kind != FrameKind::kDistMessage ||
        header.payload_size > options_.max_payload_bytes) {
      batch->fatal = "lost framing: bad frame kind or oversized payload";
      break;
    }
    const size_t payload_size = static_cast<size_t>(header.payload_size);
    if (rx_size_ - cursor - kFrameHeaderBytes < payload_size) break;
    const uint8_t* payload = rx_buffer_.data() + cursor + kFrameHeaderBytes;
    if (Crc32(payload, payload_size) != header.payload_crc) {
      // Reject-and-renegotiate: drop the frame, tell the peer where the
      // in-order stream ends so it retransmits from there.
      ++batch->crc_rejects;
      if (last_nak_cum_ != delivered_seq_) {
        last_nak_cum_ = delivered_seq_;
        batch->naks_to_send.push_back(delivered_seq_);
      }
    } else {
      ParsePayload(payload, payload_size, batch);
    }
    cursor += kFrameHeaderBytes + payload_size;
  }
  // Compact once per batch: only a partial frame's bytes move.
  if (cursor > 0) {
    std::memmove(rx_buffer_.data(), rx_buffer_.data() + cursor,
                 rx_size_ - cursor);
    rx_size_ -= cursor;
  }
}

void FrameChannel::ParsePayload(const uint8_t* payload, size_t size,
                                RxBatch* batch) {
  // CRC already verified.
  PayloadReader in(payload, size);
  uint32_t ctl = 0;
  uint64_t seq = 0;
  if (!in.Get(&ctl) || !in.Get(&seq)) {
    batch->fatal = "malformed channel header (framing lost)";
    return;
  }
  switch (ctl) {
    case kCtlData: {
      uint32_t app_type = 0;
      if (!in.Get(&app_type)) {
        batch->fatal = "malformed data frame (framing lost)";
        return;
      }
      if (seq == delivered_seq_ + 1) {
        Message msg;
        msg.type = app_type;
        msg.body.assign(payload + kDataHeaderBytes, payload + size);
        batch->delivered.push_back(std::move(msg));
        delivered_seq_ = seq;
        last_nak_cum_ = ~0ULL;  // progress: a new gap deserves a new NAK
        batch->ack = true;
      } else if (seq <= delivered_seq_) {
        // Duplicate: the peer retransmitted because our ack was lost (or a
        // kDuplicate fault fired). Re-ack, never redeliver.
        ++batch->dup_suppressed;
        batch->ack = true;
      } else if (last_nak_cum_ != delivered_seq_) {
        // Gap: something before this frame was dropped or CRC-rejected.
        // Renegotiate from the last in-order point; the peer resends
        // everything after it (go-back-N). NAK once per gap — the window
        // of frames behind the gap all arrive out of order and must not
        // each trigger a full-window retransmit.
        last_nak_cum_ = delivered_seq_;
        batch->naks_to_send.push_back(delivered_seq_);
      }
      break;
    }
    case kCtlAck:
    case kCtlNak:
      batch->peer_control.emplace_back(ctl, seq);
      break;
    case kCtlPing:
      break;  // last_rx_ms_ is refreshed for every read
    default:
      batch->fatal = "unknown channel frame type " + std::to_string(ctl);
      break;
  }
}

void FrameChannel::ApplyRxLocked(RxBatch& batch) {
  if (batch.bytes_read > 0) {
    stats_.bytes_received += batch.bytes_read;
    last_rx_ms_ = NowMs();
  }
  if (dead_) return;  // nothing past a death is delivered or answered
  if (!batch.delivered.empty()) {
    stats_.frames_received += batch.delivered.size();
    for (Message& msg : batch.delivered) rx_queue_.push_back(std::move(msg));
    rx_cv_.notify_all();
  }
  stats_.crc_rejects += batch.crc_rejects;
  stats_.dup_suppressed += batch.dup_suppressed;
  if (obs::MetricsEnabled()) {
    if (batch.crc_rejects > 0) {
      TransportMetrics::Get().crc_rejects->Inc(batch.crc_rejects);
    }
    if (batch.dup_suppressed > 0) {
      TransportMetrics::Get().dup_suppressed->Inc(batch.dup_suppressed);
    }
  }
  for (const auto& [ctl, seq] : batch.peer_control) {
    while (!inflight_.empty() && inflight_.front().seq <= seq) {
      inflight_.pop_front();
    }
    if (ctl == kCtlAck) {
      if (inflight_.empty() && tx_queue_.empty()) drain_cv_.notify_all();
      continue;
    }
    // NAK: everything after the peer's last in-order frame goes out again
    // now. The NAK itself proves the peer is alive, so the retransmit
    // budget restarts — exhaustion must measure silence, not
    // renegotiation.
    ++stats_.naks_received;
    const int64_t now = NowMs();
    for (Inflight& f : inflight_) {
      if (f.sent_once) {
        f.next_deadline_ms = now;
        f.attempts = 1;
        f.backoff_ms = options_.rto_initial_ms;
      }
    }
  }
  for (uint64_t cum : batch.naks_to_send) {
    ++stats_.naks_sent;
    QueueControlLocked(kCtlNak, cum);
  }
  if (!batch.fatal.empty()) {
    MarkDeadLocked(batch.fatal);
  } else if (batch.ack) {
    // One cumulative ack per parse batch (covers re-acking duplicates).
    QueueControlLocked(kCtlAck, delivered_seq_);
  }
}

void FrameChannel::IoLoop() {
  while (true) {
    int64_t poll_deadline;
    short events = POLLIN;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closing_ || dead_) break;
      const int64_t now = NowMs();
      TransmitDueLocked(now);
      if (dead_) break;

      // Idle keepalive so a busy-computing peer still proves liveness.
      if (options_.keepalive_ms > 0 &&
          now - last_tx_ms_ >=
              static_cast<int64_t>(options_.keepalive_ms) &&
          tx_queue_.empty()) {
        QueueControlLocked(kCtlPing, 0);
      }

      FlushWritesLocked();
      if (dead_) break;

      // Earliest future event bounds the poll timeout.
      poll_deadline = now + 100;
      for (const Inflight& f : inflight_) {
        if (!f.sent_once && f.hold_until_ms != 0) {
          poll_deadline = std::min(poll_deadline, f.hold_until_ms);
        } else if (f.sent_once) {
          poll_deadline = std::min(poll_deadline, f.next_deadline_ms);
        } else {
          poll_deadline = now;  // unsent frame: transmit immediately
        }
      }
      if (options_.keepalive_ms > 0) {
        poll_deadline =
            std::min(poll_deadline,
                     last_tx_ms_ + static_cast<int64_t>(options_.keepalive_ms));
      }
      if (!tx_queue_.empty()) events |= POLLOUT;
    }

    struct pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = events;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    const int timeout =
        static_cast<int>(std::max<int64_t>(0, poll_deadline - NowMs()));
    const int rc = ::poll(fds, wake_pipe_[0] >= 0 ? 2 : 1, timeout);
    if (rc < 0 && errno != EINTR) {
      std::unique_lock<std::mutex> lock(mutex_);
      MarkDeadLocked(Errno("poll failed"));
      break;
    }
    if (wake_pipe_[0] >= 0) {
      uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    // Read, check and copy out without the lock; publish under it.
    std::string read_error;
    RxBatch batch;
    batch.bytes_read = ReadAvailable(&read_error);
    if (batch.bytes_read > 0) ParseFrames(&batch);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ApplyRxLocked(batch);
      FlushWritesLocked();
      if (!read_error.empty() && !dead_) MarkDeadLocked(read_error);
      if (dead_) break;
    }
  }
  // Final wake for anyone blocked on a channel that died mid-wait.
  std::unique_lock<std::mutex> lock(mutex_);
  rx_cv_.notify_all();
  drain_cv_.notify_all();
}

// --------------------------------------------------------------------------
// Socket helpers.

bool MakeSocketPair(int fds[2], std::string* error) {
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    if (error != nullptr) *error = Errno("socketpair failed");
    return false;
  }
  return true;
}

int ListenLoopback(uint16_t* port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("socket failed");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) *error = Errno("bind/listen failed");
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    if (error != nullptr) *error = Errno("getsockname failed");
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int AcceptWithTimeout(int listen_fd, uint32_t timeout_ms, std::string* error) {
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      if (error != nullptr) *error = "accept timed out";
      return -1;
    }
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("poll failed");
      return -1;
    }
    if (rc == 0) continue;  // loop re-checks the deadline
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;  // transient — retry inside the deadline
    }
    if (error != nullptr) *error = Errno("accept failed");
    return -1;
  }
}

int ConnectLoopback(uint16_t port, uint32_t timeout_ms, std::string* error) {
  const int64_t deadline = NowMs() + timeout_ms;
  uint32_t backoff_ms = 5;  // bounded exponential backoff between attempts
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = Errno("socket failed");
      return -1;
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    if (NowMs() + backoff_ms > deadline) {
      if (error != nullptr) *error = Errno("connect timed out");
      return -1;
    }
    struct timespec ts;
    ts.tv_sec = backoff_ms / 1000;
    ts.tv_nsec = static_cast<long>(backoff_ms % 1000) * 1000000L;
    ::nanosleep(&ts, nullptr);
    backoff_ms = std::min(backoff_ms * 2, 200u);
  }
}

}  // namespace warplda
