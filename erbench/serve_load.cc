#include "serve_load.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "serve/protocol.h"

namespace erbench {

namespace {

using erlb::proc::FrameType;

/// Sends one request and waits for its response; true iff the server
/// answered with the expected frame and (for probes) a decodable result.
bool Exchange(Connection* conn, const LoadRequest& request,
              erlb::er::MatchResult* answer) {
  std::string payload;
  FrameType type = FrameType::kServeAdmin;
  FrameType expect = FrameType::kServeAck;
  switch (request.kind) {
    case LoadRequest::Kind::kProbe:
      payload = erlb::serve::EncodeProbeRequest({request.entity});
      type = FrameType::kServeProbe;
      expect = FrameType::kServeResult;
      break;
    case LoadRequest::Kind::kInsert:
      payload = erlb::serve::EncodeInsertRequest({request.entity});
      break;
    case LoadRequest::Kind::kRemove:
      payload = erlb::serve::EncodeRemoveRequest({request.remove_id});
      break;
  }
  auto response =
      erlb::serve::RoundTrip(conn->fd, &conn->parser, type, payload);
  if (!response.ok() || response->type != expect) return false;
  if (request.kind != LoadRequest::Kind::kProbe) return true;
  auto matches = erlb::serve::DecodeMatches(response->payload);
  if (!matches.ok()) return false;
  if (request.sampled) *answer = std::move(*matches);
  return true;
}

const char* SpanName(LoadRequest::Kind kind) {
  switch (kind) {
    case LoadRequest::Kind::kProbe:
      return "serve.probe";
    case LoadRequest::Kind::kInsert:
      return "serve.insert";
    case LoadRequest::Kind::kRemove:
      return "serve.remove";
  }
  return "serve.request";
}

}  // namespace

std::vector<LoadOutcome> RunOpenLoop(std::vector<Connection>* connections,
                                     const std::vector<LoadRequest>& requests,
                                     int64_t abort_late_ns,
                                     Tracer* tracer, uint64_t parent_span) {
  std::vector<LoadOutcome> outcomes(requests.size());
  // Set once a request has been answered; a remove waits for its insert.
  std::unique_ptr<std::atomic<bool>[]> done(
      new std::atomic<bool>[requests.size()]);
  for (size_t i = 0; i < requests.size(); ++i) done[i] = false;
  std::atomic<size_t> next{0};
  std::atomic<bool> aborted{false};
  const int64_t start_ns = NowNs() + 2'000'000;  // let the senders start

  auto sender = [&](Connection* conn) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      const LoadRequest& request = requests[i];
      LoadOutcome& out = outcomes[i];
      out.due_ns = start_ns + request.due_offset_ns;
      auto skip = [&] {
        out.skipped = true;
        done[i] = true;
      };
      if (aborted.load()) {
        skip();
        continue;
      }
      if (NowNs() < out.due_ns) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(out.due_ns)));
        out.slept = true;
      }
      if (request.kind == LoadRequest::Kind::kRemove) {
        while (!done[request.insert_index].load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      if (abort_late_ns > 0 && NowNs() - out.due_ns > abort_late_ns) {
        aborted = true;
      }
      if (aborted.load()) {
        skip();
        continue;
      }
      out.send_ns = NowNs();
      out.ok = Exchange(conn, request, &out.answer);
      out.done_ns = NowNs();
      done[i] = true;
      if (tracer->enabled()) {
        Span span;
        span.name = SpanName(request.kind);
        span.start_ns = out.send_ns;
        span.end_ns = out.done_ns;
        span.parent = parent_span;
        span.run = i + 1;
        span.tid = ThreadIndex();
        span.counts = {{"late_ms", (out.send_ns - out.due_ns) / 1e6},
                       {"latency_ms", (out.done_ns - out.due_ns) / 1e6},
                       {"ok", out.ok ? 1.0 : 0.0}};
        tracer->Add(std::move(span));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(connections->size());
  for (Connection& conn : *connections) threads.emplace_back(sender, &conn);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

}  // namespace erbench
