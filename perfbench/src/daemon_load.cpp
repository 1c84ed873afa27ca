// daemon_hostile: chronosd over the in-process loopback, untrusted clients.
//
// One connection carries an open loop in segments of kSegment requests:
// request j of a segment is due at the segment's start + j/rate and is timed
// from that due time to the moment the generator sees its reply. The
// generator speaks the wire itself (encode_request + FrameParser over
// Stream::try_recv) because ChronosClient::drain blocks and cannot time
// individual replies. Before the first segment and after every segment the
// generator waits until nothing is in flight and times a reference-kernel
// burst on every core; the two pauses around a segment scale its latencies
// to reference speed. The pauses come every kSegment requests whatever the
// daemon's speed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/fault_injection.hpp"
#include "core/integrity.hpp"
#include "core/session.hpp"
#include "corpus.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = chronos::core;
namespace netd = chronos::netd;
using chronos::RangingRequest;
using chronos::StatusCode;

constexpr std::size_t kLinks = 384;
constexpr int kThreads = 4;  // set-up, replay and reference-burst threads
constexpr int kSetupReps = 3;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueDepth = 4096;  // never full at this rate
constexpr int kMaxAttempts = 3;
constexpr double kFaultRate = 0.05;        // per fault class
constexpr double kRate = 40.0;             // offered requests/s
constexpr std::size_t kWarmup = 8;         // closed loop, not timed
constexpr double kSloMs = 80.0;            // the paper's per-estimate budget
constexpr std::size_t kSegment = 10;       // timed requests between pauses
constexpr int kRefCalls = 200;             // products per thread per pause
constexpr double kTailQuantile = 0.90;     // p95 and p99 spread too widely
constexpr std::size_t kAttributed = 256;   // tickets in the traced pass
// The daemon's own rng seed, and with it the per-ticket fault schedule, is
// fixed: the workload seed varies placements, sweeps and request order.
constexpr std::uint64_t kDaemonSeed = 0x6461656D6F6Eull;  // "daemon"

/// Client side of one loopback connection, speaking raw wire frames.
struct Wire {
  std::shared_ptr<netd::Stream> stream;
  netd::FrameParser parser;
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> in;

  void send_request(std::uint64_t id, const RangingRequest& request) {
    out.clear();
    netd::encode_request(out, {id, request});
    if (!stream->send(out).ok()) throw std::runtime_error("send failed");
  }
  void send_goodbye() {
    out.clear();
    netd::encode_goodbye(out);
    (void)stream->send(out);
  }
  /// Feeds whatever bytes arrived; true if any did.
  bool pump() {
    in.clear();
    chronos::Result<std::size_t> got = stream->try_recv(in);
    if (!got.ok() || got.value() == 0) return false;
    parser.feed(in);
    return true;
  }
  /// Next complete frame, if any (throws on a damaged stream).
  bool next(netd::Frame& frame) {
    const auto poll = parser.poll(frame);
    if (poll == netd::FrameParser::Poll::kError) {
      throw std::runtime_error("reply stream damaged: " +
                               parser.error().to_string());
    }
    return poll == netd::FrameParser::Poll::kFrame;
  }
  void handshake() {
    out.clear();
    netd::encode_hello(out);
    if (!stream->send(out).ok()) throw std::runtime_error("hello failed");
    netd::Frame frame;
    for (;;) {
      std::vector<std::uint8_t> buf;
      chronos::Result<std::size_t> got = stream->recv(buf);
      if (!got.ok() || got.value() == 0) throw std::runtime_error("no ack");
      parser.feed(buf);
      if (next(frame)) {
        if (frame.type != netd::FrameType::kHelloAck) {
          throw std::runtime_error("expected a hello ack");
        }
        return;
      }
    }
  }
};

struct Setup {
  Corpus corpus;
  std::shared_ptr<const core::SweepSource> source;  ///< fault-injecting
  core::EngineConfig config;  ///< with the daemon's hostile integrity
  chronos::RetryPolicy retry{kMaxAttempts};
};

std::unique_ptr<netd::ChronosDaemon> start_daemon(const Setup& s) {
  netd::DaemonOptions options;
  options.shards = kShards;
  options.shard_queue_depth = kQueueDepth;
  options.shard_threads = 1;
  options.retry = s.retry;
  options.trusted_clients = false;
  chronos::mathx::Rng rng(kDaemonSeed);
  return std::make_unique<netd::ChronosDaemon>(
      s.source, s.corpus.engine_config.ranging, s.corpus.calibration, rng,
      options);
}

/// Everything one open-loop run observed.
struct Run {
  std::vector<RangingRequest> requests;       ///< warm-up + timed, sent order
  std::vector<netd::ResponseFrame> replies;   ///< index-aligned with requests
  std::vector<bool> answered;
  std::vector<double> latency_ms;  ///< timed request i - kWarmup, from due
  std::vector<double> late_ms;     ///< send time - due time
  /// Per segment: from its start to its last reply [s].
  std::vector<double> segment_s;
  /// Reference burst [ns per product, kThreads threads] at each pause: one
  /// before the first segment and one after every segment.
  std::vector<double> pause_ref_ns;
  std::unique_ptr<netd::ChronosDaemon> daemon;  ///< served, for its log
};

Run open_loop(const Setup& s, std::unique_ptr<netd::ChronosDaemon> daemon,
              const Options& opt, double seconds, bool traced, Tracer& tracer) {
  Run run;
  const auto n_timed = static_cast<std::size_t>(std::llround(kRate * seconds));
  const std::size_t n_total = kWarmup + n_timed;

  // Request i ranges link order[i % kLinks]; the order is a seeded shuffle.
  std::vector<std::size_t> order(kLinks);
  for (std::size_t i = 0; i < kLinks; ++i) order[i] = i;
  chronos::mathx::Rng shuffle(opt.seed ^ 0x5EEDull);
  for (std::size_t i = kLinks - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle.uniform_int(0, static_cast<int>(i)));
    std::swap(order[i], order[j]);
  }
  for (std::size_t i = 0; i < n_total; ++i) {
    run.requests.push_back(s.corpus.links[order[i % kLinks]].request);
  }
  run.replies.resize(n_total);
  run.answered.assign(n_total, false);
  run.latency_ms.assign(n_timed, 0.0);

  Wire wire;
  {
    auto [client, server] = netd::make_loopback();
    daemon->attach(server);
    wire.stream = client;
  }
  std::exception_ptr server_error;
  std::thread server([&]() {
    try {
      daemon->serve();
    } catch (...) {
      server_error = std::current_exception();
    }
  });

  std::exception_ptr client_error;
  try {
    wire.handshake();
    netd::Frame frame;
    std::size_t received = 0;
    // The current segment: its first request id and start time.
    std::size_t first = 0;
    Clock::time_point start{};
    auto due_s = [&](std::size_t id) {
      return static_cast<double>(id - first) / kRate;
    };
    auto take = [&](std::size_t expect_upto, Clock::time_point now) {
      while (wire.next(frame)) {
        const std::uint64_t id = frame.response.request_id;
        if (frame.type != netd::FrameType::kResponse || id < first ||
            id >= expect_upto || run.answered[id]) {
          throw std::runtime_error("unexpected reply frame");
        }
        run.answered[id] = true;
        run.replies[id] = frame.response;
        ++received;
        if (id < kWarmup) continue;
        run.latency_ms[id - kWarmup] =
            (seconds_between(start, now) - due_s(id)) * 1e3;
        if (traced) {
          tracer.record("netd.roundtrip", id,
                        start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(due_s(id))),
                        now);
        }
      }
    };

    // Warm-up: closed loop, so every shard's solver workspace is built.
    for (std::size_t i = 0; i < kWarmup; ++i) {
      wire.send_request(i, run.requests[i]);
    }
    while (received < kWarmup) {
      if (!wire.pump()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      take(kWarmup, Clock::now());
    }

    // A pause: nothing is in flight, so the system under test never slows
    // the reference down.
    auto pause = [&]() {
      const double ref = reference_burst_ns(kThreads, kRefCalls);
      if (!(ref > 0.0) || !std::isfinite(ref)) {
        throw std::runtime_error("reference kernel timing failed");
      }
      run.pause_ref_ns.push_back(ref);
    };
    pause();
    std::size_t sent = kWarmup;
    for (first = kWarmup; first < n_total; first += kSegment) {
      const std::size_t last = std::min(n_total, first + kSegment);
      start = Clock::now();
      Clock::time_point last_reply = start;
      while (received < last) {
        bool progress = false;
        while (sent < last &&
               seconds_between(start, Clock::now()) >= due_s(sent)) {
          run.late_ms.push_back(
              (seconds_between(start, Clock::now()) - due_s(sent)) * 1e3);
          const std::int32_t span =
              traced ? tracer.begin("wire.send_request", sent) : -1;
          wire.send_request(sent, run.requests[sent]);
          if (traced) tracer.end(span);
          ++sent;
          progress = true;
        }
        if (wire.pump()) {
          last_reply = Clock::now();
          const std::int32_t span =
              traced ? tracer.begin("wire.parse_replies", sent) : -1;
          take(sent, last_reply);
          if (traced) tracer.end(span);
          progress = true;
        }
        if (progress) continue;
        const double idle_s =
            sent < last ? due_s(sent) - seconds_between(start, Clock::now())
                        : 1.0;
        const double wait_us = std::min(50.0, idle_s * 1e6);
        if (wait_us > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<long>(wait_us)));
        }
      }
      run.segment_s.push_back(seconds_between(start, last_reply));
      pause();
    }
    wire.send_goodbye();
  } catch (...) {
    client_error = std::current_exception();
    wire.stream->close();
  }
  server.join();
  if (client_error) std::rethrow_exception(client_error);
  if (server_error) std::rethrow_exception(server_error);
  run.daemon = std::move(daemon);
  return run;
}

bool same_reply(const netd::ResponseFrame& got, const netd::RangingReply& want) {
  auto bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  return got.code == want.status.code() && bits(got.tof_s, want.tof_s) &&
         bits(got.distance_m, want.distance_m) && bits(got.toa_s, want.toa_s) &&
         bits(got.detection_delay_s, want.detection_delay_s) &&
         got.peak_found == want.peak_found &&
         static_cast<int>(got.solver_iterations) == want.solver_iterations &&
         static_cast<int>(got.attempts) == want.attempts;
}

/// Outcomes the hostile workload never expects: integrity rejections and
/// exhausted retries are the correct answer to injected faults, these are
/// not.
bool unexpected(StatusCode code) {
  return code == StatusCode::kInternal || code == StatusCode::kQueueFull ||
         code == StatusCode::kMalformedFrame ||
         code == StatusCode::kVersionMismatch ||
         code == StatusCode::kUnknownNode || code == StatusCode::kUnknownLink;
}

/// Latencies at reference speed: timed request i is scaled by the mean of
/// the reference pauses before and after its segment.
std::vector<double> normalised(const Run& run) {
  std::vector<double> out;
  out.reserve(run.latency_ms.size());
  for (std::size_t i = 0; i < run.latency_ms.size(); ++i) {
    const std::size_t seg = i / kSegment;
    const double ref =
        0.5 * (run.pause_ref_ns[seg] + run.pause_ref_ns[seg + 1]);
    out.push_back(run.latency_ms[i] * kRefNominalNs / ref);
  }
  return out;
}

}  // namespace

void run_daemon_hostile(const Options& opt, Report& rep, Tracer& tracer) {
  // ---- set-up: corpus synthesis + calibration + daemon start, repeated;
  // each repetition first drops the previous one.
  std::vector<double> setup_s;
  Setup s;
  std::unique_ptr<netd::ChronosDaemon> daemon;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t previous = s.corpus.fingerprint;
    daemon.reset();
    s = Setup{};
    const auto t0 = Clock::now();
    s.corpus = build_corpus(opt.seed, kLinks, kThreads);
    s.source = std::make_shared<core::FaultInjectingSweepSource>(
        s.corpus.trace, core::FaultProfile::hostile(kFaultRate));
    s.config = s.corpus.engine_config;
    s.config.ranging.integrity = core::IntegrityConfig::hostile();
    daemon = start_daemon(s);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (r > 0 && s.corpus.fingerprint != previous) {
      rep.fail("corpus synthesis is not deterministic across set-ups");
    }
  }

  // The measured phase's peak memory starts from the started daemon.
  reset_peak_rss();
  const Run run = open_loop(s, std::move(daemon), opt, opt.seconds, false, tracer);
  const double peak_rss = peak_rss_mb();
  const std::vector<RangingRequest>& admitted = run.daemon->admitted_requests();
  const netd::DaemonStats& st = run.daemon->stats();

  // ---- correctness: replay the admitted log through measure_batch under
  // the same hostile config and retry policy.
  core::ChronosEngine engine(s.source, s.config);
  engine.set_calibration(s.corpus.calibration);
  chronos::mathx::Rng replay_rng(kDaemonSeed);
  const chronos::BatchResult replay = engine.measure_batch(
      admitted, replay_rng, chronos::BatchOptions{kThreads, s.retry});
  // One connection and a queue that never fills: admission order is send
  // order, so request i holds global ticket i.
  std::uint64_t mismatches = admitted.size() == run.requests.size() ? 0 : 1;
  for (std::size_t i = 0; i < run.requests.size() && i < admitted.size(); ++i) {
    if (!(admitted[i] == run.requests[i]) || !run.answered[i] ||
        !same_reply(run.replies[i], netd::reply_of(replay.results[i]))) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    rep.fail(std::to_string(mismatches) +
             " daemon replies differ from measure_batch(admitted_requests())");
  }
  if (st.responses_sent != st.admitted + st.queue_full_rejections ||
      st.admitted != admitted.size()) {
    rep.fail("daemon counters do not reconcile");
  }

  // ---- outcomes of the timed requests.
  Layers layers;
  std::uint64_t ok = 0, non_ok = 0, slo_miss = 0, bad = 0, attempts = 0,
                retried = 0, unexpected_outcomes = 0;
  std::vector<double> err;
  for (std::size_t i = kWarmup; i < run.requests.size(); ++i) {
    const netd::ResponseFrame& r = run.replies[i];
    count_status(layers, r.code);
    attempts += r.attempts;
    if (r.attempts > 1) ++retried;
    if (unexpected(r.code) || !run.answered[i]) ++unexpected_outcomes;
    if (r.code != StatusCode::kOk) {
      ++non_ok;
      ++slo_miss;
      continue;
    }
    ++ok;
    if (run.latency_ms[i - kWarmup] > kSloMs) ++slo_miss;
    const auto link = std::find_if(
        s.corpus.links.begin(), s.corpus.links.end(),
        [&](const Link& l) { return l.request == run.requests[i]; });
    const double e = std::abs(r.distance_m - link->true_distance_m);
    err.push_back(e);
    if (e > 1.0) ++bad;
  }
  if (slo_miss > non_ok && ok > 0) {
    rep.note(std::to_string(slo_miss - non_ok) + " ok replies missed the " +
             std::to_string(kSloMs) + " ms budget");
  }
  const std::size_t n_timed = run.requests.size() - kWarmup;
  rep.attempted = n_timed;
  rep.failed = unexpected_outcomes;
  rep.counters["hostile.non_ok"] = non_ok;
  rep.counters["hostile.attempts"] = attempts;
  rep.counters["hostile.admitted"] = st.admitted;

  const std::vector<double> norm_ms = normalised(run);
  const double tail_q = kTailQuantile;
  // Throughput over the segments' spans (first due time to last reply),
  // pauses excluded. Below saturation this is about the offered rate times
  // the ok share; it falls only when the daemon cannot keep up.
  const double span_s = sum(run.segment_s);

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.ranges_per_sec = static_cast<double>(ok) / span_s;
  e2e.latency_p50_ms = quantile(norm_ms, 0.5);
  e2e.latency_tail_ms = quantile(norm_ms, tail_q);
  e2e.peak_rss_mb = peak_rss;

  RawFigures raw;
  raw.ranges_per_sec = e2e.ranges_per_sec;
  raw.latency_p50_ms = quantile(run.latency_ms, 0.5);
  raw.latency_tail_ms = quantile(run.latency_ms, tail_q);
  raw.ref_run_ns = median(run.pause_ref_ns);
  rep.note("daemon_hostile: " + std::to_string(n_timed) + " timed requests at " +
           std::to_string(kRate) + "/s offered, " + std::to_string(kShards) +
           " shards x 1 worker; tail = p" + std::to_string(100.0 * tail_q));
  rep.note(raw.describe());

  if (!opt.trace) {
    emit_end_to_end(rep, e2e);
    return;
  }

  // ---- traced pass: the same open loop (half as long) on a fresh daemon,
  // with spans, then the single-threaded attribution.
  const Run traced = open_loop(s, start_daemon(s), opt, 0.5 * opt.seconds, true, tracer);
  // Same daemon seed and request order: the traced replies are a prefix of
  // the untraced run's.
  std::uint64_t traced_mismatches = 0;
  for (std::size_t i = 0; i < traced.requests.size(); ++i) {
    if (i >= admitted.size() || !(traced.requests[i] == admitted[i]) ||
        !traced.answered[i] ||
        !same_reply(traced.replies[i], netd::reply_of(replay.results[i]))) {
      ++traced_mismatches;
    }
  }
  if (traced_mismatches > 0) {
    rep.fail(std::to_string(traced_mismatches) +
             " traced daemon replies differ from the measure_batch replay");
  }
  layers.trace_overhead_pct =
      100.0 *
      (quantile(normalised(traced), 0.5) -
       e2e.latency_p50_ms) /
      e2e.latency_p50_ms;

  // Attribution: timed tickets, single-threaded, on the daemon's own ticket
  // streams (base.split(global ticket)).
  chronos::mathx::Rng daemon_rng(kDaemonSeed);
  const chronos::mathx::Rng base = daemon_rng.fork(core::kBatchStreamTag);
  std::vector<Ticket> tickets;
  for (std::size_t i = kWarmup; i < run.requests.size() && tickets.size() < kAttributed;
       ++i) {
    chronos::Result<core::ResolvedRequest> resolved =
        s.source->resolve(run.requests[i]);
    if (!resolved.ok()) throw std::runtime_error("corpus link does not resolve");
    tickets.push_back({std::move(resolved).value(), base.split(i), i});
  }
  const core::RangingPipeline pipeline(s.source->bands(), s.config.ranging);
  const Attribution attr = attribute(*s.source, pipeline, s.corpus.calibration,
                                     s.retry, tickets, tracer);
  std::vector<double> overhead;
  std::uint64_t attr_mismatch = attr.decomposition_mismatches;
  for (std::size_t t = 0; t < attr.service_results.size(); ++t) {
    const std::size_t i = tickets[t].id;
    if (!same_result(attr.service_results[t], replay.results[i])) ++attr_mismatch;
    overhead.push_back(run.latency_ms[i - kWarmup] - attr.service_ms[t]);
  }
  if (attr_mismatch > 0) rep.fail("traced pass disagrees with the daemon replies");

  layers.synth_ms_p50 = median(s.corpus.synth_ms);
  layers.panel_ms_per_rhs = panel_ms_per_rhs(
      pipeline, s.corpus.calibration, s.corpus,
      core::ranging_solve_group(kLinks, kThreads), tracer);
  // Busy share of the shard workers: traced service time of the requests
  // served against shards x span.
  layers.parallel_efficiency = mean(attr.service_ms) * static_cast<double>(n_timed) /
                               (static_cast<double>(kShards) * span_s * 1e3);
  layers.runtime_overhead_ms_p50 = median(overhead);
  layers.gen_late_p99_ms = quantile(run.late_ms, 0.99);
  layers.attempts_per_request = static_cast<double>(attempts) / n_timed;
  layers.retried_fraction = static_cast<double>(retried) / n_timed;
  layers.failed_fraction = static_cast<double>(non_ok) / n_timed;
  layers.slo_miss_fraction = static_cast<double>(slo_miss) / n_timed;
  layers.dist_err_p50_m = quantile(err, 0.5);
  layers.dist_err_p90_m = quantile(err, 0.9);
  layers.bad_range_fraction =
      static_cast<double>(bad) / std::max<double>(1.0, static_cast<double>(ok));
  layers.admitted = st.admitted;
  layers.failed_resolution = st.failed_resolution;
  layers.queue_full_rejections = st.queue_full_rejections;
  layers.responses_sent = st.responses_sent;
  layers.raw = raw;

  std::vector<netd::RequestFrame> req_frames;
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    req_frames.push_back({i, run.requests[i]});
  }
  layers.wire = measure_wire(req_frames, run.replies, tracer);
  layers.ref_kernel_ns = opt.ref_kernel_ns;
  emit_layers(rep, layers, attr, tracer);
}

}  // namespace perfbench
