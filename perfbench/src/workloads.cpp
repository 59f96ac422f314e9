// The two workloads, open-loop chat into one ServingEngine in MXFP4+
// and in BF16, and the traced run's fleet replay: a small shared-prefix
// batch through a 2-shard ShardedFrontEnd. See ../README.md for why
// each exists.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "serve/router.h"

namespace perfbench {

using mxplus::EngineOptions;
using mxplus::EngineStats;
using mxplus::QuantConfig;
using mxplus::RequestOutcome;
using mxplus::RequestStats;
using mxplus::Rng;
using mxplus::ServeRequest;
using mxplus::Transformer;
using mxplus::latencyPercentile;

namespace {

// Chat: Poisson arrivals at a fixed rate the engine sustains without a
// growing backlog. A run serves at least kChatMinRequests so that
// ttft_p90_ms has ten samples beyond it.
constexpr double kChatRate = 2.0; // requests per second
constexpr size_t kChatMinRequests = 100;
constexpr size_t kChatMinLen = 16;
constexpr size_t kChatMaxLen = 64;
constexpr size_t kChatPrefixCacheTokens = 2048;

// Fleet replay: families sharing a long system prompt, interleaved.
constexpr size_t kFleetShards = 2;
constexpr size_t kFleetFamilies = 4;
constexpr size_t kFleetPerFamily = 6;
constexpr size_t kFleetHeadTokens = 256;
constexpr size_t kFleetTailTokens = 32;
constexpr size_t kFleetNewTokens = 64;
constexpr size_t kFleetBudgetTokens = 512;
constexpr double kFleetOverAdmission = 1.5;
constexpr size_t kFleetPrefixCacheTokens = 1024;

std::vector<int>
randomTokens(Rng &rng, size_t n, size_t vocab)
{
    std::vector<int> t(n);
    for (int &x : t)
        x = static_cast<int>(rng.uniformInt(vocab));
    return t;
}

/** @p n lengths spread evenly over [lo, hi], shuffled: every seed
    gets the same total, so throughput does not ride on the draw. */
std::vector<size_t>
spreadLengths(Rng &rng, size_t n, size_t lo, size_t hi)
{
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = lo + (n > 1 ? (i * (hi - lo) + (n - 1) / 2) / (n - 1) : 0);
    for (size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
    return v;
}

/**
 * The warm-up request: a prompt that shares no page with any workload
 * prompt (a constant run of one token id), one prefill and one decode
 * step. That runs every path a chat step takes once; each further
 * decode step would only add serving time, which drifts with the
 * machine's load, to setup_s.
 */
ServeRequest
warmupRequest()
{
    ServeRequest r;
    r.prompt.assign(16, 1);
    r.max_new_tokens = 2;
    return r;
}

/** Counter deltas between two EngineStats snapshots, as per-layer
    metrics named @p prefix + layer (the chat engine's carry no prefix,
    the fleet replay's "fleet."). */
void
addEngineCounters(const EngineStats &before, const EngineStats &after,
                  size_t prompt_tokens, const std::string &prefix,
                  Metrics &out)
{
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        out.add(prefix + name, value, unit);
    };
    const double batches =
        static_cast<double>(after.decode_batches - before.decode_batches);
    add("engine.decode_ms", after.decode_ms - before.decode_ms, "ms");
    add("engine.batch_occupancy",
        batches > 0 ? static_cast<double>(after.decode_tokens -
                                          before.decode_tokens) /
                batches
                    : 0.0,
        "rows");
    add("sched.deferred_steps",
        static_cast<double>(after.admission_deferred_steps -
                            before.admission_deferred_steps),
        "count");
    add("sched.preemptions",
        static_cast<double>(after.preemptions - before.preemptions),
        "count");
    add("sched.recompute_tokens",
        static_cast<double>(after.preempted_recompute_tokens -
                            before.preempted_recompute_tokens),
        "count");
    add("kv.bytes_peak", static_cast<double>(after.kv_bytes_peak), "B");
    add("kv.bytes_reserved_peak",
        static_cast<double>(after.kv_bytes_reserved_peak), "B");
    add("kv.pages_peak", static_cast<double>(after.kv_pages_peak), "count");
    add("kv.compressed_ratio", after.compressed_ratio, "ratio");
    const double hits = static_cast<double>(after.prefix_hit_tokens -
                                            before.prefix_hit_tokens);
    add("prefix.hit_tokens", hits, "count");
    add("prefix.hit_ratio",
        prompt_tokens > 0 ? hits / static_cast<double>(prompt_tokens) : 0.0,
        "ratio");
    add("prefix.inserted_tokens",
        static_cast<double>(after.prefix_inserted_tokens -
                            before.prefix_inserted_tokens),
        "count");
    add("prefix.evicted_pages",
        static_cast<double>(after.prefix_evicted_pages -
                            before.prefix_evicted_pages),
        "count");
    add("codec.decode_calls",
        static_cast<double>(after.codec_decode_calls -
                            before.codec_decode_calls),
        "count");
}

/** End-to-end latency metrics from per-request samples. */
void
addLatencyMetrics(const std::vector<double> &ttft,
                  const std::vector<double> &itl, Metrics &m)
{
    // A failed request is infinitely late; keep JSON finite.
    auto finite = [](double v) { return std::isfinite(v) ? v : 1e12; };
    m.add("ttft_p50_ms", finite(latencyPercentile(ttft, 0.50)), "ms");
    m.add("ttft_p90_ms", finite(latencyPercentile(ttft, 0.90)), "ms");
    m.add("itl_p50_ms", latencyPercentile(itl, 0.50), "ms");
    m.add("itl_p99_ms", latencyPercentile(itl, 0.99), "ms");
}

// ------------------------------------------------------------------ chat --

/** Requests and due offsets (seconds from the schedule origin) of the
    chat workload: a Poisson process conditioned on its count, i.e.
    sorted uniform arrival times over the window. */
struct ChatSchedule
{
    std::vector<ServeRequest> reqs;
    std::vector<double> due_s;
};

ChatSchedule
chatSchedule(uint64_t seed, double seconds, size_t vocab)
{
    const size_t n = std::max(
        kChatMinRequests,
        static_cast<size_t>(std::llround(kChatRate * seconds)));
    const double window = static_cast<double>(n) / kChatRate;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
    const auto prompt_len =
        spreadLengths(rng, n, kChatMinLen, kChatMaxLen);
    const auto out_len = spreadLengths(rng, n, kChatMinLen, kChatMaxLen);
    ChatSchedule s;
    for (size_t i = 0; i < n; ++i) {
        ServeRequest r;
        r.prompt = randomTokens(rng, prompt_len[i], vocab);
        r.max_new_tokens = out_len[i];
        s.reqs.push_back(std::move(r));
        s.due_s.push_back(rng.uniform() * window);
    }
    std::sort(s.due_s.begin(), s.due_s.end());
    return s;
}

WorkloadRun
runChat(const RunArgs &args, const Transformer &model,
        const std::string &format, Clock::time_point process_start,
        Tracer &tracer)
{
    WorkloadRun run;
    run.format = format;
    const ChatSchedule sched =
        chatSchedule(args.seed, args.seconds, model.config().vocab);
    const size_t n = sched.reqs.size();

    EngineOptions opts;
    opts.prefix_cache_tokens = kChatPrefixCacheTokens;
    mxplus::ServingEngine engine(model, QuantConfig::fromFormat(format),
                                 opts);
    engine.submit(warmupRequest());
    engine.runToCompletion();
    const double setup_s = msBetween(process_start, Clock::now()) / 1000.0;
    const EngineStats before = engine.engineStats();

    struct Live
    {
        size_t idx;
        size_t engine_id;
        Clock::time_point last;
    };
    std::vector<Live> live;
    run.served.resize(n);
    std::vector<double> ttft(n, std::numeric_limits<double>::infinity());
    std::vector<double> itl, lag, step_ms, prefill_ms, decode_ms,
        queue_wait;
    double idle_ms = 0.0;
    size_t tokens = 0;
    std::vector<Clock::time_point> submitted(n);

    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(5);
    auto dueAt = [&](size_t i) {
        return origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(sched.due_s[i]));
    };
    Clock::time_point last_token = origin;
    size_t next = 0;
    while (next < n || !live.empty()) {
        Clock::time_point now = Clock::now();
        while (next < n && dueAt(next) <= now) {
            run.served[next].req = sched.reqs[next];
            const Clock::time_point s0 = Clock::now();
            const size_t id = engine.submit(sched.reqs[next]);
            const Clock::time_point s1 = Clock::now();
            lag.push_back(msBetween(dueAt(next), s0));
            submitted[next] = s0;
            tracer.span("client.submit", next + 1, s0, s1);
            live.push_back({next, id, s1});
            ++next;
            now = Clock::now();
        }
        if (live.empty()) {
            const Clock::time_point wake = dueAt(next);
            std::this_thread::sleep_until(wake);
            idle_ms += msBetween(now, Clock::now());
            continue;
        }
        const EngineStats &es = engine.engineStats();
        const size_t chunks0 = es.prefill_chunks;
        const Clock::time_point t0 = Clock::now();
        engine.step();
        const Clock::time_point t1 = Clock::now();
        const double dt = msBetween(t0, t1);
        step_ms.push_back(dt);
        const bool prefilled = es.prefill_chunks != chunks0;
        (prefilled ? prefill_ms : decode_ms).push_back(dt);
        tracer.span("engine.step", 0, t0, t1,
                    prefilled ? "prefill" : "decode");

        for (size_t i = 0; i < live.size();) {
            Live &l = live[i];
            Served &sv = run.served[l.idx];
            const RequestStats &rs = engine.stats(l.engine_id);
            while (sv.tokens.size() < rs.generated.size()) {
                sv.tokens.push_back(rs.generated[sv.tokens.size()]);
                ++tokens;
                if (sv.tokens.size() == 1)
                    ttft[l.idx] = msBetween(dueAt(l.idx), t1);
                else
                    itl.push_back(msBetween(l.last, t1));
                l.last = t1;
                last_token = t1;
            }
            if (!rs.finished) {
                ++i;
                continue;
            }
            sv.outcome = rs.outcome;
            if (rs.outcome != RequestOutcome::kCompleted)
                ttft[l.idx] = std::numeric_limits<double>::infinity();
            queue_wait.push_back(rs.queue_wait_ms);
            tracer.span("request", l.idx + 1, submitted[l.idx], l.last,
                        mxplus::outcomeName(rs.outcome));
            live[i] = live.back();
            live.pop_back();
        }
    }
    const double span_ms = msBetween(dueAt(0), last_token);
    const double rss = peakRssMb();
    engine.runToCompletion(); // finalize aggregate stats
    const EngineStats &after = engine.engineStats();

    Metrics &e = run.end_to_end;
    e.add("setup_s", setup_s, "s");
    addLatencyMetrics(ttft, itl, e);
    e.add("throughput_tok_s", 1000.0 * static_cast<double>(tokens) / span_ms,
          "tok/s");
    e.add("peak_rss_mb", rss, "MB");

    size_t prompt_tokens = 0;
    for (const ServeRequest &r : sched.reqs)
        prompt_tokens += r.prompt.size();
    double busy_ms = 0.0;
    for (double s : step_ms)
        busy_ms += s;
    Metrics &p = run.per_layer;
    p.add("load.requests", static_cast<double>(n), "count");
    p.add("load.tokens", static_cast<double>(tokens), "count");
    p.add("load.lag_p99_ms", latencyPercentile(lag, 0.99), "ms");
    p.add("engine.steps", static_cast<double>(step_ms.size()), "count");
    p.add("engine.step_ms_p50", latencyPercentile(step_ms, 0.50), "ms");
    p.add("engine.step_ms_p99", latencyPercentile(step_ms, 0.99), "ms");
    p.add("engine.prefill_step_ms_p50", latencyPercentile(prefill_ms, 0.50),
          "ms");
    p.add("engine.decode_step_ms_p50", latencyPercentile(decode_ms, 0.50),
          "ms");
    p.add("engine.busy_s", busy_ms / 1000.0, "s");
    p.add("engine.idle_s", idle_ms / 1000.0, "s");
    p.add("sched.queue_wait_ms_p50", latencyPercentile(queue_wait, 0.50),
          "ms");
    p.add("sched.queue_wait_ms_p99", latencyPercentile(queue_wait, 0.99),
          "ms");
    addEngineCounters(before, after, prompt_tokens, "", p);

    // The budget is unbounded, so nothing is preempted or regenerated:
    // every delivered token is one prefill token of a completed request
    // or one decode row.
    size_t completed = 0;
    for (const Served &sv : run.served)
        completed += sv.outcome == RequestOutcome::kCompleted;
    run.engine_token_count =
        after.decode_tokens - before.decode_tokens + completed;
    run.kv_peaks.push_back(after.kv_bytes_peak);
    engine.clearPrefixCache();
    run.kv_live_after_clear = engine.kvBytesLive();
    return run;
}

// ---------------------------------------------------------- fleet replay --

std::vector<ServeRequest>
fleetRequests(uint64_t seed, size_t vocab)
{
    Rng rng(seed * 0xD1B54A32D192ED03ull + 29);
    std::vector<std::vector<int>> heads;
    for (size_t f = 0; f < kFleetFamilies; ++f)
        heads.push_back(randomTokens(rng, kFleetHeadTokens, vocab));
    // Interleaved: one request of every family, then the next round.
    std::vector<ServeRequest> reqs;
    for (size_t r = 0; r < kFleetPerFamily; ++r) {
        for (size_t f = 0; f < kFleetFamilies; ++f) {
            ServeRequest q;
            q.prompt = heads[f];
            const auto tail = randomTokens(rng, kFleetTailTokens, vocab);
            q.prompt.insert(q.prompt.end(), tail.begin(), tail.end());
            q.max_new_tokens = kFleetNewTokens;
            reqs.push_back(std::move(q));
        }
    }
    return reqs;
}

} // namespace

void
fleetReplay(const Transformer &model, uint64_t seed, Metrics &out,
            std::vector<std::string> &failures)
{
    WorkloadRun run;
    run.format = "MXFP4+";
    run.client_streams = true;
    const std::vector<ServeRequest> reqs =
        fleetRequests(seed, model.config().vocab);
    const size_t n = reqs.size();

    EngineOptions opts;
    opts.kv_budget_tokens = kFleetBudgetTokens;
    opts.over_admission = kFleetOverAdmission;
    opts.prefix_cache_tokens = kFleetPrefixCacheTokens;
    opts.compress_frozen_pages = true;
    mxplus::RouterOptions router;
    router.num_shards = kFleetShards;
    router.policy = mxplus::RoutePolicy::kPrefixAffinity;
    auto fleet = std::make_unique<mxplus::ShardedFrontEnd>(
        model, QuantConfig::fromFormat(run.format), opts, router);
    mxplus::ServingClient &client = *fleet;

    // The affinity hash alone: per prompt, the mean of 100 calls.
    constexpr size_t kAffinityReps = 100;
    std::vector<double> affinity_us;
    size_t out_of_range = 0;
    for (const ServeRequest &r : reqs) {
        const Clock::time_point a0 = Clock::now();
        for (size_t k = 0; k < kAffinityReps; ++k)
            out_of_range += mxplus::affinityShard(r.prompt,
                                                  fleet->pageTokens(),
                                                  router.affinity_pages,
                                                  kFleetShards) >=
                kFleetShards;
        affinity_us.push_back(msBetween(a0, Clock::now()) * 1000.0 /
                              kAffinityReps);
    }

    std::vector<uint64_t> tickets(n);
    std::vector<double> submit_us;
    const Clock::time_point origin = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        const Clock::time_point s0 = Clock::now();
        tickets[i] = client.submit(reqs[i]);
        submit_us.push_back(msBetween(s0, Clock::now()) * 1000.0);
    }
    // One consumer thread drains every stream in ticket order.
    run.served.resize(n);
    size_t tokens = 0;
    for (size_t i = 0; i < n; ++i) {
        Served &sv = run.served[i];
        sv.req = reqs[i];
        int tok = 0;
        while (client.nextToken(tickets[i], &tok))
            sv.tokens.push_back(tok);
        tokens += sv.tokens.size();
    }
    const double batch_ms = msBetween(origin, Clock::now());
    client.drain();
    for (size_t i = 0; i < n; ++i) {
        const RequestStats &rs = client.stats(tickets[i]);
        run.served[i].outcome = rs.outcome;
        run.served[i].engine_tokens = rs.generated;
        if (rs.outcome != RequestOutcome::kCompleted)
            failures.push_back("fleet replay: request " + std::to_string(i) +
                               " ended " + mxplus::outcomeName(rs.outcome));
    }
    const EngineStats after = client.engineStats();

    out.add("router.submit_us_p50", latencyPercentile(submit_us, 0.50), "us");
    out.add("router.submit_us_p99", latencyPercentile(submit_us, 0.99), "us");
    out.add("router.affinity_us_p50", latencyPercentile(affinity_us, 0.50),
            "us");
    double shard_sum = 0.0, shard_max = 0.0;
    for (size_t s = 0; s < fleet->numShards(); ++s) {
        const EngineStats &ss = fleet->shardStats(s);
        shard_sum += static_cast<double>(ss.decode_tokens);
        shard_max = std::max(shard_max, static_cast<double>(ss.decode_tokens));
        run.kv_peaks.push_back(ss.kv_bytes_peak);
    }
    out.add("router.shard_token_imbalance",
            shard_sum > 0 ? shard_max * static_cast<double>(kFleetShards) /
                    shard_sum
                          : 0.0,
            "ratio");
    out.add("router.reroutes",
            static_cast<double>(fleet->healthStats().failover_reroutes),
            "count");
    out.add("fleet.throughput_tok_s",
            1000.0 * static_cast<double>(tokens) / batch_ms, "tok/s");
    size_t prompt_tokens = 0;
    for (const ServeRequest &r : reqs)
        prompt_tokens += r.prompt.size();
    addEngineCounters(EngineStats{}, after, prompt_tokens, "fleet.", out);
    if (out_of_range > 0)
        failures.push_back("fleet replay: affinityShard out of range");

    const mxplus::KvPagePool &pool = fleet->shardEngine(0).pool();
    run.kv_budget_bytes = (kFleetBudgetTokens + pool.pageTokens() - 1) /
        pool.pageTokens() * model.config().n_layers * pool.pageBytes();
    // Solo-path sample: two requests drawn from the seed.
    Rng pick(seed + 103);
    run.solo_sample = {pick.uniformInt(n), pick.uniformInt(n)};
    fleet.reset(); // joins every shard thread
    for (const std::string &f : checkRun(model, run, seed))
        failures.push_back("fleet replay: " + f);
}

WorkloadRun
runWorkload(const RunArgs &args, const Transformer &model,
            Clock::time_point process_start, Tracer &tracer)
{
    if (args.workload == "chat-mxfp4p") {
        WorkloadRun run =
            runChat(args, model, "MXFP4+", process_start, tracer);
        Rng pick(args.seed + 101);
        for (size_t k = 0; k < 4; ++k)
            run.solo_sample.push_back(pick.uniformInt(run.served.size()));
        return run;
    }
    if (args.workload == "chat-bf16")
        return runChat(args, model, "BF16", process_start, tracer);
    throw std::invalid_argument("unknown workload: " + args.workload);
}

} // namespace perfbench
