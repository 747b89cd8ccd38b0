#include "http/object_service.h"

#include <charconv>
#include <memory>
#include <string>

#include "util/bytes.h"
#include "util/logging.h"

namespace longlook::http {

void ObjectService::serve(AppStream& stream, std::function<void()> flush) {
  // Per-stream request state. `responded` makes the response exactly-once:
  // without it, any delivery arriving after the request line was handled —
  // an upload body chunk, or a bare fin — re-finds the '\n' in the
  // accumulated buffer and responds a second time on the same stream.
  struct Request {
    std::string buf;
    bool header_done = false;
    bool responded = false;
    bool is_perf = false;
    std::size_t download = 0;
    std::uint64_t upload = 0;
    std::uint64_t body_received = 0;
  };
  auto req = std::make_shared<Request>();
  stream.set_on_data([this, &stream, flush = std::move(flush),
                      req](BytesView data, bool fin) {
    if (req->responded) return;
    if (!req->header_done) {
      req->buf.append(reinterpret_cast<const char*>(data.data()), data.size());
      const auto nl = req->buf.find('\n');
      if (nl == std::string::npos) return;
      req->header_done = true;
      if (req->buf.rfind("PRF ", 0) == 0) {
        // "PRF <download> <upload>\n" + <upload> body bytes, fin on the
        // last — the quicperf request/response transaction. The response
        // starts once the full request (header + body) has arrived.
        req->is_perf = true;
        const char* p = req->buf.data() + 4;
        const char* end = req->buf.data() + nl;
        const auto r1 = std::from_chars(p, end, req->download);
        if (r1.ec == std::errc() && r1.ptr < end && *r1.ptr == ' ') {
          std::from_chars(r1.ptr + 1, end, req->upload);
        }
        req->body_received = req->buf.size() - (nl + 1);
        req->buf.clear();
        req->buf.shrink_to_fit();
      } else {
        // "GET /obj<k> <size>\n" — responds at the header, as the page
        // loader's clients never send a body.
        const auto space = req->buf.rfind(' ', nl);
        std::size_t size = 0;
        if (space != std::string::npos) {
          std::from_chars(req->buf.data() + space + 1, req->buf.data() + nl,
                          size);
        }
        req->responded = true;
        ++requests_served_;
        respond(stream, size, flush);
        return;
      }
    } else if (req->is_perf) {
      req->body_received += data.size();
    }
    if (req->is_perf && (fin || req->body_received >= req->upload)) {
      req->responded = true;
      ++requests_served_;
      upload_bytes_received_ += req->body_received;
      respond(stream, req->download, flush);
    }
  });
}

void ObjectService::respond(AppStream& stream, std::size_t size,
                            const std::function<void()>& flush) {
  // Large bodies are produced incrementally against the transport's write
  // backlog, like a real server sendfile loop — this bounds memory for the
  // paper's 210 MB objects and keeps the sender busy without buffering the
  // whole response.
  static constexpr std::size_t kChunk = 512 * 1024;
  static constexpr std::size_t kBacklogLimit = 2 * 1024 * 1024;
  static_assert(2 * kChunk <= util::kZeroBytesMax);
  auto do_respond = [this, &stream, size, flush] {
    if (size <= 2 * kChunk) {
      stream.write(util::zero_bytes(size), /*fin=*/true);
      if (flush) flush();
      return;
    }
    auto remaining = std::make_shared<std::size_t>(size);
    auto pump = std::make_shared<std::function<void()>>();
    // The pump must not capture its own shared_ptr (that cycle never frees);
    // each scheduled event holds the strong reference instead, so the pump
    // dies with its last pending event.
    std::weak_ptr<std::function<void()>> weak_pump = pump;
    *pump = [this, &stream, flush, remaining, weak_pump] {
      bool wrote = false;
      while (*remaining > 0 && stream.write_backlog() < kBacklogLimit) {
        const std::size_t n = std::min(kChunk, *remaining);
        *remaining -= n;
        stream.write(util::zero_bytes(n), /*fin=*/*remaining == 0);
        wrote = true;
      }
      if (wrote && flush) flush();
      if (*remaining > 0) {
        if (auto self = weak_pump.lock()) {
          sim_.schedule(milliseconds(2), [self] { (*self)(); });
        }
      }
    };
    (*pump)();
  };
  if (delay_rng_ != nullptr && delay_hi_ > kNoDuration) {
    const double lo = static_cast<double>(delay_lo_.count());
    const double hi = static_cast<double>(delay_hi_.count());
    const Duration wait(
        static_cast<std::int64_t>(delay_rng_->uniform(lo, hi)));
    sim_.schedule(wait, [do_respond = std::move(do_respond),
                         token = std::weak_ptr<char>(live_token_)] {
      if (token.expired()) return;
      do_respond();
    });
  } else {
    do_respond();
  }
}

QuicObjectServer::QuicObjectServer(Simulator& sim, Host& host, Port port,
                                   quic::QuicConfig config)
    : service_(sim), server_(sim, host, port, config) {
  server_.set_stream_handler(
      [this](quic::QuicStream& stream, quic::QuicConnection& conn) {
        adapters_.push_back(std::make_unique<QuicAppStream>(stream, conn));
        QuicAppStream* adapter = adapters_.back().get();
        service_.serve(*adapter, [&conn] { conn.flush(); });
      });
}

TcpObjectServer::TcpObjectServer(Simulator& sim, Host& host, Port port,
                                 tcp::TcpConfig config,
                                 std::size_t max_concurrent_streams)
    : service_(sim), server_(sim, host, port, config) {
  server_.set_accept_handler([this, max_concurrent_streams,
                              &sim](tcp::TcpConnection& conn) {
    (void)sim;
    sessions_.push_back(std::make_unique<H2Session>(
        conn, /*is_client=*/false, max_concurrent_streams));
    H2Session* session = sessions_.back().get();
    session->set_on_new_stream([this, session](H2Stream& stream) {
      service_.serve(stream, [session] { session->transport().flush(); });
    });
  });
}

}  // namespace longlook::http
