// Output checks against computations made apart from the serving
// engine, and the self-test that feeds each check a corrupted copy of
// the run's own output and requires a rejection.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "serve/kv_cache.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

using mxplus::Matrix;
using mxplus::QuantConfig;
using mxplus::RequestOutcome;
using mxplus::Transformer;

namespace {

int
argmaxRow(const Matrix &logits, size_t row)
{
    const float *r = logits.row(row);
    return static_cast<int>(std::max_element(r, r + logits.cols()) - r);
}

std::string
requestLabel(size_t i)
{
    return "request " + std::to_string(i);
}

/** Greedy first token of every request, from forward(prompt). */
std::vector<int>
forwardFirstTokens(const Transformer &model, const QuantConfig &qc,
                   const std::vector<Served> &served)
{
    std::vector<int> first;
    for (const Served &s : served) {
        const Matrix logits = model.forward(s.req.prompt, qc);
        first.push_back(argmaxRow(logits, logits.rows() - 1));
    }
    return first;
}

/** The solo path: prefill + decodeStep on a private cache, greedy. */
std::vector<int>
soloStream(const Transformer &model, const QuantConfig &qc,
           const mxplus::ServeRequest &req)
{
    mxplus::KvCache cache = mxplus::KvCache::forConfig(
        model.config(), qc, req.prompt.size() + req.max_new_tokens);
    Matrix logits = model.prefill(req.prompt, cache, qc);
    std::vector<int> out{argmaxRow(logits, logits.rows() - 1)};
    while (out.size() < req.max_new_tokens) {
        logits = model.decodeStep(out.back(), cache, qc);
        out.push_back(argmaxRow(logits, 0));
    }
    return out;
}

/**
 * Completed requests delivered exactly max_new_tokens; with
 * @p client_streams, each delivered stream equals the engine's
 * RequestStats::generated; and the delivered total equals
 * @p engine_token_count unless that is SIZE_MAX.
 */
std::string
checkConservation(const std::vector<Served> &served, bool client_streams,
                  size_t engine_token_count)
{
    size_t delivered = 0;
    for (size_t i = 0; i < served.size(); ++i) {
        const Served &s = served[i];
        if (client_streams && s.tokens != s.engine_tokens)
            return requestLabel(i) +
                ": delivered stream differs from stats().generated";
        if (s.outcome == RequestOutcome::kCompleted &&
            s.tokens.size() != s.req.max_new_tokens)
            return requestLabel(i) + ": completed with " +
                std::to_string(s.tokens.size()) + " of " +
                std::to_string(s.req.max_new_tokens) + " tokens";
        delivered += s.tokens.size();
    }
    if (engine_token_count != SIZE_MAX && delivered != engine_token_count)
        return "delivered " + std::to_string(delivered) +
            " tokens, the engine's counters say " +
            std::to_string(engine_token_count);
    return "";
}

std::string
checkFirstTokens(const std::vector<Served> &served,
                 const std::vector<int> &reference)
{
    for (size_t i = 0; i < served.size(); ++i) {
        if (served[i].outcome != RequestOutcome::kCompleted)
            continue;
        if (served[i].tokens.empty() ||
            served[i].tokens[0] != reference[i])
            return requestLabel(i) +
                ": first token is not argmax of forward(prompt)";
    }
    return "";
}

/**
 * BF16 decode is bit-exact to forward: every token is the argmax of
 * forward(prompt + tokens so far). forward() is causal, so one pass
 * over prompt + stream gives every prefix's last-row logits at once.
 */
std::string
checkForwardStreams(const Transformer &model, const QuantConfig &qc,
                    const std::vector<Served> &served)
{
    for (size_t i = 0; i < served.size(); ++i) {
        const Served &s = served[i];
        if (s.outcome != RequestOutcome::kCompleted || s.tokens.empty())
            continue;
        std::vector<int> seq = s.req.prompt;
        seq.insert(seq.end(), s.tokens.begin(), s.tokens.end() - 1);
        const Matrix logits = model.forward(seq, qc);
        const size_t p = s.req.prompt.size();
        for (size_t t = 0; t < s.tokens.size(); ++t) {
            if (argmaxRow(logits, p - 1 + t) != s.tokens[t])
                return requestLabel(i) + ": token " + std::to_string(t) +
                    " is not argmax of forward(prompt + tokens so far)";
        }
    }
    return "";
}

std::string
checkSoloStreams(const std::vector<Served> &served,
                 const std::vector<size_t> &sample,
                 const std::vector<std::vector<int>> &reference)
{
    for (size_t k = 0; k < sample.size(); ++k) {
        const Served &s = served[sample[k]];
        if (s.outcome == RequestOutcome::kCompleted &&
            s.tokens != reference[k])
            return requestLabel(sample[k]) +
                ": stream differs from the solo prefill + decodeStep path";
    }
    return "";
}

std::string
checkKvBounds(const WorkloadRun &run)
{
    for (size_t e = 0; e < run.kv_peaks.size(); ++e) {
        if (run.kv_budget_bytes > 0 && run.kv_peaks[e] > run.kv_budget_bytes)
            return "engine " + std::to_string(e) + ": kv_bytes_peak " +
                std::to_string(run.kv_peaks[e]) +
                " exceeds the budget " + std::to_string(run.kv_budget_bytes);
    }
    if (run.kv_live_after_clear != SIZE_MAX && run.kv_live_after_clear != 0)
        return "kvBytesLive() is " + std::to_string(run.kv_live_after_clear) +
            " after drain + clearPrefixCache()";
    return "";
}

} // namespace

std::vector<std::string>
checkRun(const Transformer &model, const WorkloadRun &run, uint64_t seed)
{
    std::vector<std::string> failures;
    auto require = [&](const std::string &what, const std::string &err) {
        if (!err.empty())
            failures.push_back(what + ": " + err);
    };
    auto reject = [&](const std::string &what, const std::string &err) {
        if (err.empty())
            failures.push_back("self-test: " + what +
                               " accepted a corrupted copy");
    };

    const QuantConfig qc = QuantConfig::fromFormat(run.format);
    const std::vector<Served> &served = run.served;
    const std::vector<int> first = forwardFirstTokens(model, qc, served);
    // The solo decode runs with one OpenMP thread: results are
    // bit-identical at any thread count, and under a thread team a
    // 1-row MXFP4+ decodeStep takes about 90 ms (see
    // model.decode_b1_ctx64_ms), which would make this check cost more
    // than the workload. The checks are not timed.
    std::vector<std::vector<int>> solo;
#ifdef _OPENMP
    const int omp_threads = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    for (size_t i : run.solo_sample)
        solo.push_back(soloStream(model, qc, served[i].req));
#ifdef _OPENMP
    omp_set_num_threads(omp_threads);
#endif
    const bool bf16 = run.format == "BF16";

    require("conservation",
            checkConservation(served, run.client_streams,
                              run.engine_token_count));
    require("first token", checkFirstTokens(served, first));
    if (bf16)
        require("bf16 stream", checkForwardStreams(model, qc, served));
    require("solo path", checkSoloStreams(served, run.solo_sample, solo));
    require("kv bounds", checkKvBounds(run));

    const std::vector<float> blocks = outlierBlocks(seed, 4096);
    std::vector<float> q4, q4p;
    quantizeMx(false, blocks, q4);
    quantizeMx(true, blocks, q4p);
    double closer = 0.0;
    require("mx+ blocks", checkMxPlusBlocks(blocks, q4, q4p, &closer));

    // Self-test: each check must reject a corrupted copy. The victim is
    // a completed request with at least two tokens (the first solo
    // sample when there is one, so the solo check sees it too).
    size_t victim = run.solo_sample.empty() ? 0 : run.solo_sample[0];
    while (victim < served.size() &&
           (served[victim].outcome != RequestOutcome::kCompleted ||
            served[victim].tokens.size() < 2))
        ++victim;
    if (victim == served.size()) {
        failures.push_back("self-test: no completed request to corrupt");
        return failures;
    }
    {
        std::vector<Served> bad = served;
        bad[victim].tokens.back() =
            (bad[victim].tokens.back() + 1) %
            static_cast<int>(model.config().vocab);
        if (run.client_streams)
            reject("conservation (one token changed)",
                   checkConservation(bad, true, SIZE_MAX));
        if (bf16)
            reject("bf16 stream (one token changed)",
                   checkForwardStreams(model, qc, {bad[victim]}));
        if (!run.solo_sample.empty())
            reject("solo path (one token changed)",
                   checkSoloStreams(bad, run.solo_sample, solo));
        bad[victim] = served[victim];
        bad[victim].tokens[0] = (bad[victim].tokens[0] + 1) %
            static_cast<int>(model.config().vocab);
        reject("first token (first token changed)",
               checkFirstTokens(bad, first));
    }
    {
        std::vector<Served> bad = served;
        Served &b = bad[victim];
        b.tokens.erase(b.tokens.begin() + 1);
        if (run.client_streams)
            b.engine_tokens = b.tokens;
        reject("conservation (one token dropped)",
               checkConservation(bad, run.client_streams, SIZE_MAX));
        if (run.engine_token_count != SIZE_MAX)
            reject("conservation (engine count off by one)",
                   checkConservation(served, run.client_streams,
                                     run.engine_token_count + 1));
    }
    {
        WorkloadRun bad;
        bad.kv_peaks = run.kv_peaks;
        bad.kv_budget_bytes = run.kv_peaks.front() - 1;
        reject("kv bounds (budget exceeded)", checkKvBounds(bad));
        bad.kv_budget_bytes = 0;
        bad.kv_live_after_clear = 1;
        reject("kv bounds (bytes live after clear)", checkKvBounds(bad));
    }
    {
        // Move the first block's maximum one slot along.
        std::vector<float> bad = q4p;
        int bm = 0;
        for (int i = 1; i < 32; ++i)
            if (std::fabs(blocks[i]) > std::fabs(blocks[bm]))
                bm = i;
        std::swap(bad[bm], bad[(bm + 1) % 32]);
        reject("mx+ blocks (block max moved)",
               checkMxPlusBlocks(blocks, q4, bad, &closer));
    }
    return failures;
}

} // namespace perfbench
