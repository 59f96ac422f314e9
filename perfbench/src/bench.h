// Shared types of the wall-clock serving benchmark (see ../README.md).
//
// The benchmark drives the mxplus serving stack through its public API
// only: workloads.cpp runs the traffic, checks.cpp verifies what was
// served against computations made apart from the serving engine, and
// replays.cpp times single layers at the shapes serving issues. Every
// span and per-layer number is taken around calls into the library
// from this benchmark's own code; nothing is traced inside the program.

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/quant_config.h"
#include "model/transformer.h"
#include "serve/serving_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Process high-water RSS in MB (getrusage). */
double peakRssMb();

/** Named metrics in print order. */
struct Metrics
{
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }
};

/**
 * In-memory span recorder for the traced run. A request span covers
 * submit to last token and carries its outcome; step and client-call
 * spans name the request they serve through @p id (0 = none). Off by
 * default, and then every call is a no-op.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void span(const std::string &name, uint64_t id, Clock::time_point start,
              Clock::time_point end, const std::string &detail = "");

    /** Write every span as one JSON document; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        uint64_t id;
        double start_us;
        double end_us;
        std::string detail;
    };
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** One request as the benchmark submitted and observed it. */
struct Served
{
    mxplus::ServeRequest req;
    /** Tokens as delivered to the client, in order. */
    std::vector<int> tokens;
    /** RequestStats::generated when the tokens came through a client
        stream (ServingClient::nextToken), a record kept apart from
        them; empty when the tokens were read from that record. */
    std::vector<int> engine_tokens;
    mxplus::RequestOutcome outcome = mxplus::RequestOutcome::kPending;
};

/** Everything one workload run hands to the checks and the printer. */
struct WorkloadRun
{
    std::string format; ///< "MXFP4+" or "BF16"
    std::vector<Served> served;
    /** True when every Served::engine_tokens holds the engine's record
        of a client stream, to compare with what was delivered. */
    bool client_streams = false;
    /**
     * Tokens the engine's counters say it generated: the decode-token
     * delta plus one prefill token per completed request. Valid only
     * without preemption (a restart regenerates tokens); SIZE_MAX when
     * not measured.
     */
    size_t engine_token_count = SIZE_MAX;
    /** Requests served solo for the decode-path check (indices). */
    std::vector<size_t> solo_sample;
    /**
     * Per-engine KV budget in bytes (0 = unbounded) and each engine's
     * kv_bytes_peak. The budget bounds true residency: with compressed
     * frozen pages, admission charges a page at its stream size, so
     * kv_bytes_reserved_peak (every page at slab size) may exceed it.
     */
    size_t kv_budget_bytes = 0;
    std::vector<size_t> kv_peaks;
    /** kvBytesLive() after drain + clearPrefixCache() (chat only;
        SIZE_MAX when the workload has no such probe). */
    size_t kv_live_after_clear = SIZE_MAX;
    Metrics end_to_end;
    Metrics per_layer;
};

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path;
};

/** Run workload @p args.workload; @p process_start anchors setup_s. */
WorkloadRun runWorkload(const RunArgs &args, const mxplus::Transformer &model,
                        Clock::time_point process_start, Tracer &tracer);

/** Run the layer replays (traced run only) into @p out. */
void runReplays(const mxplus::Transformer &model, uint64_t seed,
                Metrics &out, std::vector<std::string> &failures);

/**
 * The router and prefix-adoption replay: a small shared-prefix batch
 * through a 2-shard ShardedFrontEnd (prefix affinity, MXFP4+,
 * compressed frozen pages, per-shard KV budget with over-admission),
 * used only via ServingClient. Adds the router.* and fleet.* metrics
 * and runs checkRun on what the fleet served.
 */
void fleetReplay(const mxplus::Transformer &model, uint64_t seed,
                 Metrics &out, std::vector<std::string> &failures);

/** @p blocks 32-element Gaussian blocks with one outlier each. */
std::vector<float> outlierBlocks(uint64_t seed, size_t blocks);

/** MXFP4 (or MXFP4+ when @p plus) through the dispatched kernel. */
void quantizeMx(bool plus, const std::vector<float> &in,
                std::vector<float> &out);

/**
 * The MX+ block property: MXFP4+ equals MXFP4 bit for bit on every
 * non-block-max element, and its block-max error is never larger.
 * Returns the first violation ("" = none); @p closer_share receives the
 * share of blocks whose block max MXFP4+ puts strictly closer.
 */
std::string checkMxPlusBlocks(const std::vector<float> &in,
                              const std::vector<float> &q4,
                              const std::vector<float> &q4p,
                              double *closer_share);

/**
 * Run every output check on @p run, then the self-test: corrupted
 * copies of the run's own output that each check must reject. Returns
 * the failures (empty = correct).
 */
std::vector<std::string> checkRun(const mxplus::Transformer &model,
                                  const WorkloadRun &run, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
