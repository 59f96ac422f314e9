// Layer replays for the traced run: each layer's public functions are
// called at the shapes serving issues, timed from here, and checked
// against a reference written in this file (double-precision loops,
// bit-equality for the codec, the MX+ block property for src/mx). The
// router and prefix-adoption replay, fleetReplay, is in workloads.cpp
// beside the chat workload, whose helpers it shares.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "bench.h"
#include "codec/page_codec.h"
#include "common/rng.h"
#include "kernels/kernel_dispatch.h"
#include "mx/mx_quantizer.h"
#include "serve/kv_cache.h"

namespace perfbench {

using mxplus::ElementFormat;
using mxplus::KernelDispatch;
using mxplus::KvCache;
using mxplus::Matrix;
using mxplus::MxMode;
using mxplus::MxQuantizer;
using mxplus::QuantConfig;
using mxplus::Rng;
using mxplus::Transformer;

namespace {

constexpr int kBlock = 32;

/** Median wall time in microseconds of @p reps calls of @p fn, each
    preceded by an untimed @p prepare. */
double
medianUs(size_t reps, const std::function<void()> &fn,
         const std::function<void()> &prepare = nullptr)
{
    std::vector<double> us;
    for (size_t r = 0; r < reps; ++r) {
        if (prepare)
            prepare();
        const Clock::time_point t0 = Clock::now();
        fn();
        us.push_back(msBetween(t0, Clock::now()) * 1000.0);
    }
    return mxplus::latencyPercentile(us, 0.5);
}

Matrix
randomMatrix(Rng &rng, size_t rows, size_t cols)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian());
    return m;
}

/**
 * Double-precision MXFP4+ reference for one 32-element block: shared
 * exponent floor(log2(amax)) - 2, element grid E2M1 (saturating at 6),
 * and the block max alone on the E2M3 grid of its binade, 4 + k/2 for
 * k = 0..7.
 */
void
referenceMxfp4pBlock(const float *in, double *out)
{
    static const double kGrid[] = {0, 0.5, 1, 1.5, 2, 3, 4, 6};
    int bm = 0;
    for (int i = 1; i < kBlock; ++i)
        if (std::fabs(in[i]) > std::fabs(in[bm]))
            bm = i;
    const double amax = std::fabs(static_cast<double>(in[bm]));
    if (amax == 0.0) {
        std::fill(out, out + kBlock, 0.0);
        return;
    }
    const double scale = std::ldexp(1.0, MxQuantizer::floorLog2(amax) - 2);
    for (int i = 0; i < kBlock; ++i) {
        const double v = std::fabs(static_cast<double>(in[i])) / scale;
        double best = 0.0;
        if (i == bm) {
            best = std::min(7.5, 4.0 + std::round((v - 4.0) * 2.0) / 2.0);
        } else {
            for (double g : kGrid)
                if (std::fabs(g - v) < std::fabs(best - v))
                    best = g;
        }
        out[i] = std::copysign(best * scale, static_cast<double>(in[i]));
    }
}

/** True when @p got is the reference value, or an equally near grid
    point (a rounding tie broken the other way). */
bool
withinQuantTolerance(double x, double got, double ref)
{
    return got == ref || std::fabs(got - x) == std::fabs(ref - x);
}

/** Double-precision y = X * W^T for @p batch rows; returns the first
    row/column pair outside |err| <= 1e-4 * sum |x*w|, or "". */
std::string
checkGemmTolerance(const float *x, size_t ldx, const Matrix &w,
                   const float *y, size_t ldy, size_t batch,
                   const std::string &name)
{
    for (size_t b = 0; b < batch; ++b) {
        for (size_t n = 0; n < w.rows(); ++n) {
            double acc = 0.0, mag = 0.0;
            for (size_t k = 0; k < w.cols(); ++k) {
                const double p = static_cast<double>(x[b * ldx + k]) *
                    static_cast<double>(w.at(n, k));
                acc += p;
                mag += std::fabs(p);
            }
            if (std::fabs(y[b * ldy + n] - acc) > 1e-4 * mag + 1e-12)
                return name + ": row " + std::to_string(b) + " col " +
                    std::to_string(n) + " outside 1e-4 relative tolerance";
        }
    }
    return "";
}

void
kernelReplays(uint64_t seed, Metrics &m, std::vector<std::string> &fail)
{
    Rng rng(seed + 7);
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus);

    struct QuantShape
    {
        const char *name;
        size_t rows, cols, reps;
    };
    for (const QuantShape &s : {QuantShape{"w640x256", 640, 256, 41},
                                QuantShape{"1x32", 1, 32, 2001}}) {
        const Matrix w = randomMatrix(rng, s.rows, s.cols);
        Matrix out(s.rows, s.cols);
        const double us = medianUs(s.reps, [&] {
            KernelDispatch::quantizeRows(q, w.data(), out.data(), s.rows,
                                         s.cols);
        });
        const std::string key = std::string("kern.quantize_") + s.name;
        m.add(key + "_us", us, "us");
        m.add(key + ".gbps",
              2.0 * static_cast<double>(w.size() * sizeof(float)) /
                  (us * 1e3),
              "GB/s");
        double ref[kBlock];
        for (size_t b = 0; b < w.size() / kBlock; ++b) {
            referenceMxfp4pBlock(w.data() + b * kBlock, ref);
            for (int i = 0; i < kBlock; ++i) {
                const size_t j = b * kBlock + static_cast<size_t>(i);
                if (!withinQuantTolerance(w.data()[j], out.data()[j],
                                          ref[i])) {
                    fail.push_back(key + ": element " + std::to_string(j) +
                                   " is not the nearest MXFP4+ value");
                    b = w.size();
                    break;
                }
            }
        }
    }

    struct GemmShape
    {
        const char *name;
        size_t batch, n, k;
        bool matvec;
    };
    for (const GemmShape &s : {GemmShape{"matvec_b8_640x256", 8, 640, 256,
                                         true},
                               GemmShape{"matvec_b8_256x640", 8, 256, 640,
                                         true},
                               GemmShape{"gemm_32x256x256", 32, 256, 256,
                                         false}}) {
        const Matrix w = randomMatrix(rng, s.n, s.k);
        const Matrix x = randomMatrix(rng, s.batch, s.k);
        Matrix y(s.batch, s.n);
        const double us = medianUs(41, [&] {
            if (s.matvec)
                KernelDispatch::matvecBatch(w, x.data(), s.k, y.data(), s.n,
                                            s.batch);
            else
                KernelDispatch::gemmNT(x, w, y);
        });
        const std::string key = std::string("kern.") + s.name;
        m.add(key + "_us", us, "us");
        m.add(key + ".gflops",
              2.0 * static_cast<double>(s.batch * s.n * s.k) / (us * 1e3),
              "GFLOP/s");
        const std::string err =
            checkGemmTolerance(x.data(), s.k, w, y.data(), s.n, s.batch, key);
        if (!err.empty())
            fail.push_back(err);
    }
}

void
mxReplays(uint64_t seed, Metrics &m, std::vector<std::string> &fail)
{
    // 200k outlier blocks: the property must hold on every one.
    const std::vector<float> in = outlierBlocks(seed + 3, 200000);
    std::vector<float> q4, q4p;
    const Clock::time_point t0 = Clock::now();
    quantizeMx(false, in, q4);
    const Clock::time_point t1 = Clock::now();
    quantizeMx(true, in, q4p);
    const Clock::time_point t2 = Clock::now();
    const double n = static_cast<double>(in.size());
    m.add("mx.quantize_ns_per_elem.mxfp4", msBetween(t0, t1) * 1e6 / n,
          "ns");
    m.add("mx.quantize_ns_per_elem.mxfp4p", msBetween(t1, t2) * 1e6 / n,
          "ns");
    double closer = 0.0;
    const std::string err = checkMxPlusBlocks(in, q4, q4p, &closer);
    if (!err.empty())
        fail.push_back("mx replay: " + err);
    m.add("mx.bm_closer_share", closer, "ratio");
}

/** Caches of @p count requests, each prefilled with @p ctx tokens. */
std::vector<std::unique_ptr<KvCache>>
prefilledCaches(const Transformer &model, const QuantConfig &qc,
                size_t count, size_t ctx, size_t extra, Rng &rng)
{
    std::vector<std::unique_ptr<KvCache>> caches;
    for (size_t c = 0; c < count; ++c) {
        caches.push_back(std::make_unique<KvCache>(
            KvCache::forConfig(model.config(), qc, ctx + extra)));
        if (ctx == 0)
            continue;
        std::vector<int> prompt(ctx);
        for (int &t : prompt)
            t = static_cast<int>(rng.uniformInt(model.config().vocab));
        model.prefill(prompt, *caches.back(), qc);
    }
    return caches;
}

void
modelReplays(const Transformer &model, uint64_t seed, Metrics &m)
{
    constexpr size_t kReps = 7;
    for (const char *format : {"MXFP4+", "BF16"}) {
        const std::string suffix =
            std::string(".") + (format[0] == 'B' ? "bf16" : "mxfp4p");
        const QuantConfig qc = QuantConfig::fromFormat(format);
        Rng rng(seed + 11);
        std::vector<int> chunk(32);
        for (int &t : chunk)
            t = static_cast<int>(rng.uniformInt(model.config().vocab));

        for (size_t ctx : {size_t{0}, size_t{256}}) {
            std::vector<std::unique_ptr<KvCache>> cache;
            const double us = medianUs(
                kReps,
                [&] { model.prefill(chunk, *cache.front(), qc); },
                [&] { cache = prefilledCaches(model, qc, 1, ctx, 32, rng); });
            m.add(std::string("model.prefill32") +
                      (ctx ? "_ctx256_ms" : "_ms") + suffix,
                  us / 1000.0, "ms");
        }

        struct DecodeShape
        {
            const char *name;
            size_t batch, ctx;
        };
        for (const DecodeShape &d : {DecodeShape{"decode_b1_ctx64", 1, 64},
                                     DecodeShape{"decode_b8_ctx64", 8, 64},
                                     DecodeShape{"decode_b8_ctx384", 8,
                                                 384}}) {
            auto caches =
                prefilledCaches(model, qc, d.batch, d.ctx, kReps, rng);
            std::vector<mxplus::KvCache *> ptrs;
            for (auto &c : caches)
                ptrs.push_back(c.get());
            const std::vector<int> tokens(d.batch, chunk[0]);
            const double us = medianUs(kReps, [&] {
                if (d.batch == 1)
                    model.decodeStep(tokens[0], *ptrs[0], qc);
                else
                    model.decodeStepBatch(tokens, ptrs, qc);
            });
            m.add(std::string("model.") + d.name + "_ms" + suffix,
                  us / 1000.0, "ms");
        }
    }
}

void
codecReplays(const Transformer &model, uint64_t seed, Metrics &m,
             std::vector<std::string> &fail)
{
    // Frozen pages: the quantized K and V regions of every full page of
    // an MXFP4+ cache holding a 384-token prompt.
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    Rng rng(seed + 13);
    auto caches = prefilledCaches(model, qc, 1, 384, 0, rng);
    const KvCache &cache = *caches.front();
    const size_t floats = cache.pageTokens() * model.config().d_model;
    std::vector<std::vector<float>> pages;
    for (size_t l = 0; l < model.config().n_layers; ++l) {
        for (size_t p = 0; p + 1 < cache.pageCount(l); ++p) {
            const float *k = cache.keyPageData(l, p);
            const float *v = cache.valuePageData(l, p);
            pages.emplace_back(k, k + floats);
            pages.emplace_back(v, v + floats);
        }
    }
    const mxplus::PageCodec *codec = mxplus::resolvePageCodec("auto");
    if (codec == nullptr) {
        fail.push_back("codec replay: no page codec resolves");
        return;
    }
    std::vector<std::vector<uint8_t>> streams(pages.size());
    std::vector<float> decoded(floats);
    const double bytes =
        static_cast<double>(pages.size() * floats * sizeof(float));
    const double enc_us = medianUs(9, [&] {
        for (size_t i = 0; i < pages.size(); ++i)
            codec->encode(pages[i].data(), floats, streams[i]);
    });
    const double dec_us = medianUs(9, [&] {
        for (size_t i = 0; i < pages.size(); ++i)
            codec->decode(streams[i].data(), streams[i].size(),
                          decoded.data(), floats);
    });
    m.add("codec.decode_gbps", bytes / (dec_us * 1e3), "GB/s");
    m.add("codec.encode_gbps", bytes / (enc_us * 1e3), "GB/s");
    for (size_t i = 0; i < pages.size(); ++i) {
        if (!codec->decode(streams[i].data(), streams[i].size(),
                           decoded.data(), floats) ||
            std::memcmp(decoded.data(), pages[i].data(),
                        floats * sizeof(float)) != 0) {
            fail.push_back("codec replay: decode(encode(page " +
                           std::to_string(i) + ")) is not bit-equal");
            break;
        }
    }
}

} // namespace

std::vector<float>
outlierBlocks(uint64_t seed, size_t blocks)
{
    // Gaussian blocks, each with one outlier 4-64x the typical size
    // and a random power-of-two magnitude.
    Rng rng(seed * 31 + 5);
    std::vector<float> v(blocks * kBlock);
    for (size_t b = 0; b < blocks; ++b) {
        const double mag = std::ldexp(1.0, static_cast<int>(
                                               rng.uniformInt(24)) - 12);
        float *blk = v.data() + b * kBlock;
        for (int i = 0; i < kBlock; ++i)
            blk[i] = static_cast<float>(rng.gaussian() * mag);
        blk[rng.uniformInt(kBlock)] *=
            static_cast<float>(rng.uniform(4.0, 64.0));
    }
    return v;
}

void
quantizeMx(bool plus, const std::vector<float> &in, std::vector<float> &out)
{
    const MxQuantizer q(ElementFormat::E2M1,
                        plus ? MxMode::Plus : MxMode::Standard);
    out.resize(in.size());
    KernelDispatch::quantizeRows(q, in.data(), out.data(),
                                 in.size() / kBlock, kBlock);
}

std::string
checkMxPlusBlocks(const std::vector<float> &in, const std::vector<float> &q4,
                  const std::vector<float> &q4p, double *closer_share)
{
    size_t closer = 0;
    const size_t blocks = in.size() / kBlock;
    for (size_t b = 0; b < blocks; ++b) {
        const float *x = in.data() + b * kBlock;
        const int bm = MxQuantizer::bmIndex(x, kBlock);
        for (int i = 0; i < kBlock; ++i) {
            const size_t j = b * kBlock + static_cast<size_t>(i);
            if (i == bm)
                continue;
            if (std::memcmp(&q4[j], &q4p[j], sizeof(float)) != 0)
                return "block " + std::to_string(b) + " element " +
                    std::to_string(i) +
                    ": MXFP4+ differs from MXFP4 off the block max";
        }
        const size_t j = b * kBlock + static_cast<size_t>(bm);
        const double e4 = std::fabs(static_cast<double>(q4[j]) - x[bm]);
        const double e4p = std::fabs(static_cast<double>(q4p[j]) - x[bm]);
        if (e4p > e4)
            return "block " + std::to_string(b) +
                ": MXFP4+ block-max error exceeds MXFP4's";
        closer += e4p < e4;
    }
    *closer_share = blocks ? static_cast<double>(closer) /
            static_cast<double>(blocks)
                           : 0.0;
    return "";
}

void
runReplays(const Transformer &model, uint64_t seed, Metrics &out,
           std::vector<std::string> &failures)
{
    codecReplays(model, seed, out, failures);
    modelReplays(model, seed, out);
    kernelReplays(seed, out, failures);
    mxReplays(seed, out, failures);
    fleetReplay(model, seed, out, failures);
}

} // namespace perfbench
