#include "http/h2_session.h"

#include "util/check.h"

namespace longlook::http {

Bytes H2Framer::encode_frame(std::uint64_t stream_id, BytesView data,
                             bool fin) {
  ByteWriter w(data.size() + 16);
  w.varint(stream_id);
  w.varint(data.size());
  w.u8(fin ? 1 : 0);
  w.bytes(data);
  return w.take();
}

void H2Framer::feed(BytesView data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  while (true) {
    ByteReader r(buffer_);
    auto id = r.varint();
    auto len = r.varint();
    auto flags = r.u8();
    if (!id || !len) break;
    // Our writer never cuts frames above 16 KB; a length past the cap means
    // a corrupted or desynchronised stream, and honouring it would make the
    // parser buffer (and wait for) garbage gigabytes.
    LL_CHECK(*len <= kMaxFrameLength)
        << "h2 frame length " << *len << " exceeds cap " << kMaxFrameLength
        << " (stream " << *id << "): framing desync";
    if (!flags || r.remaining() < *len) break;
    const std::size_t header = r.position();
    BytesView payload = BytesView(buffer_).subspan(header,
                                                   static_cast<std::size_t>(*len));
    handler_(*id, payload, (*flags & 1) != 0);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() +
                      static_cast<std::ptrdiff_t>(header + *len));
  }
}

void H2Stream::write(BytesView data, bool fin) {
  session_.write_frame(id_, data, fin);
}

std::size_t H2Stream::write_backlog() const {
  return session_.transport().send_backlog();
}

H2Session::H2Session(tcp::TcpConnection& conn, bool is_client,
                     std::size_t max_concurrent)
    : conn_(conn),
      is_client_(is_client),
      max_concurrent_(max_concurrent),
      framer_([this](std::uint64_t id, BytesView data, bool fin) {
        dispatch(id, data, fin);
      }),
      next_stream_id_(is_client ? 1 : 2) {
  conn_.set_on_data(
      [this](BytesView data, bool fin) { on_transport_data(data, fin); });
}

bool H2Session::can_open_stream() const {
  // Session accounting is incremental (open_streams_); the O(n) recount is
  // the consistency sweep, armed in sanitizer builds.
  LL_DCHECK(open_streams_ == [this] {
    std::size_t open = 0;
    for (const auto& [id, s] : streams_) {
      if (!s->remote_closed()) ++open;
    }
    return open;
  }()) << "h2 open-stream count " << open_streams_
       << " out of sync with stream table";
  return open_streams_ < max_concurrent_;
}

H2Stream* H2Session::open_stream() {
  if (!can_open_stream()) return nullptr;
  const std::uint64_t id = next_stream_id_;
  next_stream_id_ += 2;
  // Locally-allocated ids come from our own parity space and increase
  // monotonically; a collision means the peer spoke on an id it must not
  // originate (caught in dispatch) or the allocator went backwards.
  LL_INVARIANT(streams_.find(id) == streams_.end())
      << "h2 stream id " << id << " reused";
  auto stream = std::make_unique<H2Stream>(*this, id);
  H2Stream* out = stream.get();
  streams_.emplace(id, std::move(stream));
  ++open_streams_;
  return out;
}

void H2Session::write_frame(std::uint64_t stream_id, BytesView data,
                            bool fin) {
  // Large writes are cut into frames so streams interleave on the wire,
  // like h2 DATA frames (16 KB default max frame size).
  std::size_t off = 0;
  do {
    const std::size_t n =
        std::min<std::size_t>(kMaxFrameLength, data.size() - off);
    const bool last = off + n == data.size();
    Bytes frame =
        H2Framer::encode_frame(stream_id, data.subspan(off, n), fin && last);
    conn_.write(frame, false);
    off += n;
  } while (off < data.size());
  conn_.flush();
}

void H2Session::on_transport_data(BytesView data, bool fin) {
  (void)fin;
  framer_.feed(data);
}

void H2Session::dispatch(std::uint64_t stream_id, BytesView data, bool fin) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    // Peer-initiated stream: ids are partitioned by side (client odd,
    // server even, h2-style). An unknown id in our own parity space means
    // the peer originated a stream it must not own.
    LL_INVARIANT((stream_id & 1) == (is_client_ ? 0u : 1u))
        << "peer-initiated h2 stream " << stream_id << " in the "
        << (is_client_ ? "client" : "server") << "-owned id space";
    auto stream = std::make_unique<H2Stream>(*this, stream_id);
    it = streams_.emplace(stream_id, std::move(stream)).first;
    ++open_streams_;
    if (on_new_stream_) on_new_stream_(*it->second);
  }
  H2Stream& stream = *it->second;
  // Settle the accounting BEFORE delivering: deliver() fires the app's
  // on_data callback, and the app (ScenarioRunner) opens its next queued
  // stream from inside it — can_open_stream() must already see this slot.
  if (fin && !stream.remote_closed()) {
    LL_INVARIANT(open_streams_ > 0)
        << "h2 stream " << stream_id << " closed with zero open streams";
    --open_streams_;
  }
  stream.deliver(data, fin);
}

H2ClientSession::H2ClientSession(Simulator& sim, Host& host, Address server,
                                 Port server_port, tcp::TcpConfig config,
                                 std::size_t max_concurrent)
    : client_(sim, host, server, server_port, config),
      max_concurrent_(max_concurrent) {}

void H2ClientSession::connect(std::function<void()> on_ready) {
  session_ = std::make_unique<H2Session>(client_.connection(),
                                         /*is_client=*/true, max_concurrent_);
  client_.connect(std::move(on_ready));
}

}  // namespace longlook::http
