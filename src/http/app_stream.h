// Transport-agnostic application stream/session interfaces.
//
// workload::ScenarioRunner and the video client drive these; QUIC maps them
// onto native streams (no cross-object head-of-line blocking), while TCP
// maps them onto HTTP/2-lite frames inside one ordered byte stream (HOL
// blocking under loss, exactly the contrast the paper studies).
#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.h"

namespace longlook::http {

class AppStream {
 public:
  virtual ~AppStream() = default;
  virtual void write(BytesView data, bool fin) = 0;
  virtual void set_on_data(std::function<void(BytesView, bool fin)> fn) = 0;
  virtual std::uint64_t id() const = 0;
  // Bytes accepted by write() but not yet on the wire — lets large responses
  // be produced incrementally instead of buffered whole.
  virtual std::size_t write_backlog() const { return 0; }
};

class ClientSession {
 public:
  virtual ~ClientSession() = default;
  // Fires when application data may flow (handshake + TLS complete, or
  // immediately for 0-RTT).
  virtual void connect(std::function<void()> on_ready) = 0;
  virtual AppStream* open_stream() = 0;
  virtual bool can_open_stream() const = 0;
  // Push buffered writes to the network.
  virtual void flush() = 0;
  virtual const char* protocol_name() const = 0;
};

}  // namespace longlook::http
