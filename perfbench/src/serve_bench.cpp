// Serving workloads: the open-loop load generator, the untraced end-to-end
// run (latency at the nominal rate, capacity when saturated) and its
// correctness gates (served logits bit-identical to a direct forward, every
// test image served).
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "bench.hpp"

namespace axbench {

using axnn::serve::Outcome;

ServeInputs make_inputs(const axnn::serve::Engine& e) {
  const axnn::data::Dataset& test = e.data().test;
  ServeInputs in;
  in.images.reserve(static_cast<size_t>(test.size()));
  for (int64_t i = 0; i < test.size(); ++i) in.images.push_back(test.slice(i, 1).first);
  in.labels = test.labels;
  return in;
}

std::vector<int> request_order(int64_t n, int64_t pool, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> perm(static_cast<size_t>(pool));
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(order.size()) < n) {
    for (int64_t i = 0; i < pool; ++i) perm[static_cast<size_t>(i)] = static_cast<int>(i);
    std::shuffle(perm.begin(), perm.end(), rng);
    for (int v : perm) {
      if (static_cast<int64_t>(order.size()) == n) break;
      order.push_back(v);
    }
  }
  return order;
}

PhaseSpec phase_spec(double rate, int64_t n, int64_t pool, std::mt19937_64& seeds) {
  PhaseSpec ps;
  ps.rate = rate;
  ps.order = request_order(n, pool, seeds());
  ps.seed = seeds();
  return ps;
}

PhaseOut run_phase(axnn::serve::Session& s, const ServeInputs& in, const PhaseSpec& spec) {
  const auto n = static_cast<int64_t>(spec.order.size());
  const auto un = static_cast<size_t>(n);
  PhaseOut out;
  out.latency_ms.assign(un, kUnserved);
  out.done_ms.assign(un, kUnserved);
  out.late_ms.assign(un, 0.0);
  out.submit_us.assign(un, 0.0);
  out.batch.assign(un, 0);
  out.point.assign(un, 0);
  out.top1_ok.assign(un, 0);
  out.logits.resize(un);
  out.tally.sent = n;

  // The whole schedule is drawn before the clock starts.
  std::vector<int64_t> offset(un);
  {
    std::mt19937_64 rng(spec.seed);
    std::exponential_distribution<double> gap(spec.rate);
    double t = 0;
    for (int64_t i = 0; i < n; ++i) {
      t += gap(rng);
      offset[static_cast<size_t>(i)] = static_cast<int64_t>(t * 1e9);
    }
  }

  std::vector<axnn::serve::Ticket> tickets(un);
  std::vector<int64_t> due(un);
  std::vector<char> submit_failed(un, 0);
  std::atomic<int64_t> published{0};
  const int64_t t0 = now_ns() + 2'000'000;

  std::thread submitter([&] {
    for (int64_t i = 0; i < n; ++i) {
      const auto ui = static_cast<size_t>(i);
      due[ui] = t0 + offset[ui];
      int64_t now = now_ns();
      if (now < due[ui]) {
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due[ui])));
        now = now_ns();
      }
      out.late_ms[ui] = static_cast<double>(now - due[ui]) * 1e-6;
      const int64_t span = spec.submit_log != nullptr
                               ? spec.submit_log->begin("serve.submit", spec.parent_span,
                                                        spec.req_base + i)
                               : -1;
      try {
        tickets[ui] = s.submit(in.images[static_cast<size_t>(spec.order[ui])]);
      } catch (...) {
        submit_failed[ui] = 1;
      }
      out.submit_us[ui] = static_cast<double>(now_ns() - now) * 1e-3;
      if (span >= 0) spec.submit_log->end(span);
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });

  // Collector: never stops early — the submitter may be blocked on a full
  // slot pool that only awaits free up.
  for (int64_t i = 0; i < n; ++i) {
    const auto ui = static_cast<size_t>(i);
    for (int64_t p = published.load(std::memory_order_acquire); p <= i;
         p = published.load(std::memory_order_acquire))
      published.wait(p, std::memory_order_acquire);
    if (submit_failed[ui]) {
      ++out.tally.failed;
      continue;
    }
    const int64_t span = spec.collect_log != nullptr
                             ? spec.collect_log->begin("serve.await", spec.parent_span,
                                                       spec.req_base + i)
                             : -1;
    try {
      axnn::serve::Result r = s.await(tickets[ui]);
      const int64_t done = now_ns();
      if (span >= 0) spec.collect_log->end(span);
      if (r.outcome == Outcome::kServed) {
        ++out.tally.served;
        out.latency_ms[ui] = static_cast<double>(done - due[ui]) * 1e-6;
        out.done_ms[ui] = static_cast<double>(done - t0) * 1e-6;
        out.engine_ms.push_back(r.latency_ms);
        out.batch[ui] = r.batch_size;
        out.point[ui] = r.point;
        out.top1_ok[ui] = r.top1 == in.labels[static_cast<size_t>(spec.order[ui])];
        if (!spec.keep.empty() && spec.keep[ui]) out.logits[ui] = r.logits;
      } else if (r.outcome == Outcome::kShed) {
        ++out.tally.shed;
      } else {
        ++out.tally.rejected;
      }
    } catch (...) {
      if (span >= 0) spec.collect_log->end(span);
      ++out.tally.failed;
    }
  }
  submitter.join();
  return out;
}

void quiesce(axnn::serve::Engine& e) {
  // Probation probes run only on quarantined lanes (sentinel false positives
  // can quarantine the lane); a readmitted lane with nothing in flight runs
  // nothing. Readmission takes two probes, about 100 ms.
  const int64_t t0 = now_ns();
  while (e.healthy_lanes() < e.lanes()) {
    if (ms_since(t0) > 10'000)
      throw std::runtime_error("a lane stayed quarantined for 10 s; direct forwards on "
                               "Engine::model() would race its probation probes");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void print_phase(const char* label, double rate, const PhaseOut& p) {
  const Tail t = tail_percentile(p.latency_ms);
  const Tail late = tail_percentile(p.late_ms);
  double batch_sum = 0;
  for (int b : p.batch) batch_sum += b;
  std::printf(
      "  %-10s rate %8.1f/s n %5" PRId64 "  p50 %8.3f p90 %8.3f p95 %8.3f ms  p%g %8.3f ms (%" PRId64
      " beyond)  late p%g %.3f max %.3f ms  served %" PRId64 " shed %" PRId64
      " rejected %" PRId64 " failed %" PRId64 "  mean batch %.2f\n",
      label, rate, t.n, median(p.latency_ms), percentile(p.latency_ms, 90),
      percentile(p.latency_ms, 95), t.pct, t.value, t.beyond, late.pct, late.value,
      *std::max_element(p.late_ms.begin(), p.late_ms.end()), p.tally.served, p.tally.shed,
      p.tally.rejected, p.tally.failed,
      p.tally.served > 0 ? batch_sum / static_cast<double>(p.tally.served) : 0.0);
}

namespace {

bool same_bits(const axnn::Tensor& a, const axnn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

void run_serve(const Workload& w, const RunOptions& opt, RunResult& out) {
  std::printf(
      "constants: model %s plan '%s' sentinel %d lanes 1 max_batch 8 max_delay 2 ms slots 64 "
      "admission block; warm-up %" PRId64 " requests sent back to back; then, until %.0f s and "
      "at least %" PRId64 " of each, latency windows of %" PRId64
      " Poisson arrivals at %.0f req/s alternating with capacity windows of %" PRId64
      " requests sent back to back\n",
      axnn::core::to_string(w.model).c_str(), w.plan, w.sentinel ? 1 : 0, w.warmup_requests,
      opt.seconds, w.min_windows, w.window_requests, w.nominal_rps, w.capacity_requests);

  // Set-up: the median of kSetups Engine::load calls, each from cold
  // process-wide caches (see cold_caches()); the last engine serves the run.
  std::unique_ptr<axnn::serve::Engine> engine;
  std::vector<double> loads;
  pin_current_thread(Side::kServer);
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    cold_caches();
    const int64_t t_load = now_ns();
    engine = axnn::serve::Engine::load(serve_spec(w, opt));
    loads.push_back(ms_since(t_load) * 1e-3);
  }
  pin_current_thread(Side::kClient);
  const double setup_s = median(loads);
  std::printf("  Engine::load: median %.3f s of", setup_s);
  for (double l : loads) std::printf(" %.3f", l);
  std::printf(" s\n");
  axnn::serve::Session& session = engine->session();
  const ServeInputs in = make_inputs(*engine);
  const auto pool = static_cast<int64_t>(in.images.size());
  std::mt19937_64 seeds(opt.seed * 0x9E3779B97F4A7C15ULL + 1);

  // Warm-up (untimed), saturating: first-use costs of the generator and the
  // engine stay out of the timed windows.
  const PhaseOut warm =
      run_phase(session, in, phase_spec(kSaturateRps, w.warmup_requests, pool, seeds));
  std::printf("  warm-up: %" PRId64 " requests, %.1f req/s over the second half\n",
              w.warmup_requests, completion_rate(warm.done_ms));

  // Latency windows and capacity windows alternate over the whole run, so a
  // slow stretch of the host (other guests, a few seconds at a time) spoils
  // some windows of each kind rather than one metric.
  std::vector<double> window_p50, window_p90, window_cap, all_ms, chunk_rate;
  Tally total;
  std::vector<int> image_top1(static_cast<size_t>(pool), -1);  // 1 correct, 0 wrong, -1 unseen
  struct Sample {
    int image, point;
    axnn::Tensor logits;
  };
  std::vector<Sample> samples;
  // The windows' images continue one seeded sequence of passes over the
  // test split, so every image is served once the windows cover the split.
  std::vector<int> order;
  const int64_t start = now_ns();
  while (static_cast<int64_t>(window_p50.size()) < w.min_windows ||
         ms_since(start) < opt.seconds * 1e3) {
    PhaseSpec ps;
    ps.rate = w.nominal_rps;
    ps.seed = seeds();
    while (static_cast<int64_t>(order.size()) < w.window_requests) {
      const std::vector<int> pass = request_order(pool, pool, seeds());
      order.insert(order.end(), pass.begin(), pass.end());
    }
    ps.order.assign(order.begin(), order.begin() + w.window_requests);
    order.erase(order.begin(), order.begin() + w.window_requests);
    // Gate sample: 8 seeded requests per window keep their logits.
    ps.keep.assign(ps.order.size(), 0);
    for (int k = 0; k < 8; ++k) ps.keep[seeds() % ps.keep.size()] = 1;
    const PhaseOut q = run_phase(session, in, ps);
    print_phase("latency", ps.rate, q);
    total.add(q.tally);
    window_p50.push_back(median(q.latency_ms));
    window_p90.push_back(percentile(q.latency_ms, 90));
    all_ms.insert(all_ms.end(), q.latency_ms.begin(), q.latency_ms.end());
    for (size_t i = 0; i < ps.keep.size(); ++i) {
      if (q.latency_ms[i] == kUnserved) continue;
      image_top1[static_cast<size_t>(ps.order[i])] = q.top1_ok[i];
      if (ps.keep[i]) samples.push_back({ps.order[i], q.point[i], q.logits[i]});
    }

    const PhaseOut c =
        run_phase(session, in, phase_spec(kSaturateRps, w.capacity_requests, pool, seeds));
    total.add(c.tally);
    window_cap.push_back(completion_rate(c.done_ms));
    const std::vector<double> rates =
        chunk_rates(c.done_ms, kCapacityHead, kCapacityTail, kCapacityChunk);
    chunk_rate.insert(chunk_rate.end(), rates.begin(), rates.end());
    double batch_sum = 0;
    for (size_t i = c.batch.size() / 2; i < c.batch.size(); ++i) batch_sum += c.batch[i];
    std::printf("  capacity   %" PRId64 " requests back to back: %.1f req/s over the second "
                "half (mean batch %.2f), served %" PRId64 " of %" PRId64 "\n",
                w.capacity_requests, window_cap.back(),
                batch_sum / static_cast<double>(c.batch.size() - c.batch.size() / 2),
                c.tally.served, c.tally.sent);
  }

  // Gate: the sampled served logits equal a direct forward of the same image
  // under the context the request ran with.
  quiesce(*engine);
  int64_t mismatched = 0;
  for (const Sample& smp : samples) {
    const axnn::Tensor direct = engine->model(0).forward(
        in.images[static_cast<size_t>(smp.image)], session.exec_context(0, smp.point));
    if (!same_bits(direct, smp.logits)) ++mismatched;
  }
  out.gate(!samples.empty() && mismatched == 0,
           "served logits == direct forward (" + std::to_string(samples.size()) +
               " sampled, " + std::to_string(mismatched) + " differ)");
  int64_t seen = 0, correct = 0;
  for (int v : image_top1) {
    seen += v >= 0;
    correct += v > 0;
  }
  out.gate(seen == pool, "every test image served at the nominal rate (" +
                             std::to_string(seen) + " of " + std::to_string(pool) + ")");

  // The host runs this process's core at changing speeds: other guests
  // slow it by up to 1.6x for stretches of a second to minutes, and how
  // much of a run they take differs from run to run. A slow stretch only
  // ever raises latency and lowers throughput, so the metrics describe the
  // program at the host's fast end: the second-best latency window (the
  // 10th percentile over about 16), and the 95th percentile of capacity over
  // 64-request chunks (about 8 batches each, some 200 per run). A change
  // that slows the program slows the fast end too.
  const Tail pooled = tail_percentile(all_ms);
  const double p50 = percentile(window_p50, 10);
  const double p90 = percentile(window_p90, 10);
  const double capacity = percentile(chunk_rate, 95);
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("latency_p50_ms", p50, "ms");
  out.metrics.set("latency_tail_ms", p90, "ms");
  out.metrics.set("throughput_per_s", capacity, "1/s");
  out.metrics.set("top1", static_cast<double>(correct) / static_cast<double>(pool), "fraction");
  out.metrics.set("ok_share", total.ok_share(), "fraction");
  std::printf("  %zu latency windows of %" PRId64 " requests at %.0f req/s: 10th percentile "
              "over windows of the window p50 %.3f ms and of the window p90 %.3f ms (%" PRId64
              " beyond in a window); pooled over %" PRId64 " requests p50 %.3f ms, p%g %.3f ms (%"
              PRId64 " beyond)\n",
              window_p50.size(), w.window_requests, w.nominal_rps, p50, p90,
              w.window_requests - nearest_rank(90, w.window_requests), pooled.n, median(all_ms),
              pooled.pct, pooled.value, pooled.beyond);
  // Peak resident set is printed, not reported: builds of identical sources
  // peak at levels up to 30% apart (README, "Memory").
  std::printf("  peak resident set %.1f MB\n", peak_rss_mb());
  std::printf("  %zu capacity windows, %zu chunks: p95 %.1f req/s (%" PRId64 " beyond), median "
              "%.1f req/s; window rates %.1f..%.1f req/s\n",
              window_cap.size(), chunk_rate.size(), capacity,
              static_cast<int64_t>(chunk_rate.size()) -
                  nearest_rank(95, static_cast<int64_t>(chunk_rate.size())),
              median(chunk_rate),
              *std::min_element(window_cap.begin(), window_cap.end()),
              *std::max_element(window_cap.begin(), window_cap.end()));
  out.attempted = total.sent;
  out.failed = total.failures();
}

}  // namespace axbench
