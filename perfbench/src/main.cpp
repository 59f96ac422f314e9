// Benchmark driver: runs one workload, checks what it served, and
// prints one JSON result line. Invoked by ../run.py, which builds it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

// Set during static initialization, before main(): setup_s counts
// from (close to) process start.
const Clock::time_point g_process_start = Clock::now();

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Tracer::span(const std::string &name, uint64_t id, Clock::time_point start,
             Clock::time_point end, const std::string &detail)
{
    if (!enabled_)
        return;
    spans_.push_back({name, id, msBetween(origin_, start) * 1000.0,
                      msBetween(origin_, end) * 1000.0, detail});
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    // Chrome trace-event format: one complete ("X") event per span;
    // spans of one request share its id as the thread id.
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"detail\": \"%s\"}}",
                      s.name.c_str(), static_cast<unsigned long long>(s.id),
                      s.start_us, s.end_us - s.start_us, s.detail.c_str());
        out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

namespace {

void
printMetrics(const Metrics &m)
{
    std::printf("{");
    for (size_t i = 0; i < m.items.size(); ++i) {
        const Metrics::Item &it = m.items[i];
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", it.name.c_str(), it.value,
                    it.unit.c_str());
    }
    std::printf("}");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 argv0);
    return 2;
}

int
run(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(val);
        else if (key == "--trace")
            args.trace = std::strcmp(val, "0") != 0;
        else if (key == "--trace-out")
            args.trace_path = val;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0))
        return usage(argv[0]);

    const mxplus::Transformer model(mxplus::simLlama31_70b());
    Tracer tracer(args.trace);
    const WorkloadRun result =
        runWorkload(args, model, g_process_start, tracer);

    size_t failed = 0;
    for (const Served &s : result.served)
        if (s.outcome != mxplus::RequestOutcome::kCompleted)
            ++failed;

    const Clock::time_point checks_start = Clock::now();
    std::vector<std::string> failures =
        checkRun(model, result, args.seed);
    std::fprintf(stderr, "perfbench: workload done at %.1f s, checks %.1f s\n",
                 msBetween(g_process_start, checks_start) / 1000.0,
                 msBetween(checks_start, Clock::now()) / 1000.0);
    Metrics per_layer = result.per_layer;
    if (args.trace) {
        runReplays(model, args.seed, per_layer, failures);
        if (!args.trace_path.empty() && !tracer.write(args.trace_path))
            failures.push_back("cannot write " + args.trace_path);
        // The traced run's own end-to-end figures: their gap to an
        // untraced run's is the tracing overhead.
        std::printf("traced end_to_end: ");
        printMetrics(result.end_to_end);
        std::printf("\n");
    }
    for (const std::string &f : failures)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": ",
                failures.empty() ? "true" : "false", result.served.size(),
                failed);
    printMetrics(args.trace ? per_layer : result.end_to_end);
    std::printf("}\n");
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
