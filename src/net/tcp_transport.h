// Real TCP transport: framed FlexRAN protocol messages over a socket, as in
// the paper's deployment ("TCP is used for the communication of the agents
// with the master"). Blocking sockets with one reader thread per
// connection; the receive callback runs on that thread.
//
// Threading contract: Agent and ShardCore are single-threaded (they
// live inside the discrete-event simulator). When bridging them onto a
// TcpTransport, marshal received messages onto the owner's thread/event
// loop in the receive callback -- do not call into controller state from
// the reader thread directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/framing.h"
#include "net/transport.h"

namespace flexran::net {

class TcpTransport final : public Transport {
 public:
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  static util::Result<std::unique_ptr<TcpTransport>> connect(const std::string& host,
                                                             std::uint16_t port);

  util::Status send(std::span<const std::uint8_t> message) override;
  // Classified send(TrafficClass, ...) falls through to the base default:
  // the socket buffer gives TCP native backpressure, so no local shedding.
  using Transport::send;
  void set_receive_callback(ReceiveFn fn) override;
  /// The callback runs on the reader thread (same contract as receive),
  /// exactly once, when the peer closes, the socket errors, or the stream
  /// carries a corrupt frame. Not invoked by a local close().
  void set_disconnect_callback(DisconnectFn fn) override;

  /// Starts the reader thread. Call after set_receive_callback.
  void start();
  /// Shuts the socket down and joins the reader thread.
  void close();
  bool closed() const { return closed_.load(); }

  std::uint64_t messages_sent() const override { return messages_sent_.load(); }
  std::uint64_t bytes_sent() const override { return bytes_sent_.load(); }
  std::uint64_t messages_received() const override { return messages_received_.load(); }

 private:
  friend class TcpListener;
  explicit TcpTransport(int fd) : fd_(fd) {}
  void reader_loop();

  int fd_;
  std::thread reader_;
  std::mutex send_mutex_;
  /// Reused frame buffer (guarded by send_mutex_): steady-state sends do not
  /// allocate.
  util::ByteBuffer send_scratch_;
  FrameAssembler assembler_;
  ReceiveFn receive_;
  DisconnectFn disconnect_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
};

class TcpListener {
 public:
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral port.
  static util::Result<std::unique_ptr<TcpListener>> listen(std::uint16_t port);

  std::uint16_t port() const { return port_; }

  /// Blocks until a client connects.
  util::Result<std::unique_ptr<TcpTransport>> accept();

  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}
  int fd_;
  std::uint16_t port_;
};

}  // namespace flexran::net
