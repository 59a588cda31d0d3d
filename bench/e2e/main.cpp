/**
 * @file
 * mps_e2e: one workload of the benchmark of record, in this process.
 *
 *   mps_e2e --workload=W [--seed=N] [--seconds=S] [--traced | --setup-only]
 *           [--trace-out=FILE] [--smoke]
 *
 * Prints one JSON record as the last line of stdout: host fingerprint,
 * correctness counts and the metrics with unit and sample count —
 * end-to-end metrics untraced, per-layer metrics with --traced, only
 * setup_s with --setup-only. The library reads about twenty MPS_*
 * environment knobs; a run with any of them set measures a
 * configuration no baseline shares, so it prints a record marked
 * non-comparable and exits with code 2 without measuring.
 * bench/e2e/run.py builds this binary and drives it.
 */
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "e2e.h"
#include "mps/core/locality.h"
#include "mps/util/cli.h"
#include "mps/util/json.h"
#include "mps/util/log.h"

extern char **environ;

namespace {

using namespace mps;
using namespace mps::e2e;

const std::set<std::string> kWorkloads = {
    "gcn-powerlaw-f32", "gcn-amazon-bf16", "serve-cora",
    "serve-pubmed-churn"};

/** Every MPS_* variable of this process's environment. */
std::map<std::string, std::string>
mps_environment()
{
    std::map<std::string, std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv(*e);
        const size_t eq = kv.find('=');
        if (kv.rfind("MPS_", 0) == 0 && eq != std::string::npos)
            env[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    return env;
}

/** Value of the first "<key> : value" line of /proc/cpuinfo. */
std::string
cpuinfo(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "";
}

void
write_host(JsonWriter &w)
{
    std::istringstream flag_stream(cpuinfo("flags"));
    std::set<std::string> flags;
    for (std::string f; flag_stream >> f;)
        flags.insert(f);
    w.key("host").begin_object();
    w.key("nproc").value(
        static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.key("cpu_model").value(cpuinfo("model name"));
    w.key("isa").begin_object();
    for (const char *isa : {"avx2", "avx512f", "avx512_bf16"})
        w.key(isa).value(flags.count(isa) > 0);
    w.end_object();
    w.key("detected_l2_bytes").value(detected_l2_bytes());
    w.key("detected_llc_bytes").value(detected_llc_bytes());
    w.key("compiler").value(MPS_E2E_COMPILER);
    w.key("build_type").value(MPS_E2E_BUILD_TYPE);
    w.key("build_flags").begin_object();
    w.key("MPS_NATIVE").value(MPS_E2E_NATIVE != 0);
    w.key("MPS_FORCE_SCALAR").value(MPS_E2E_FORCE_SCALAR != 0);
    w.key("MPS_SANITIZE").value(MPS_E2E_SANITIZE);
    w.end_object();
    w.end_object();
}

std::string
to_json(const Options &opt, const Record &rec,
        const std::map<std::string, std::string> &env)
{
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("mps_e2e/1");
    w.key("workload").value(opt.workload);
    w.key("seed").value(static_cast<int64_t>(opt.seed));
    w.key("seconds").value(opt.seconds);
    w.key("traced").value(opt.traced);
    w.key("setup_only").value(opt.setup_only);
    w.key("smoke").value(opt.smoke);
    w.key("comparable").value(env.empty());
    w.key("valid").value(rec.invalid.empty());
    w.key("invalid_reasons").begin_array();
    for (const std::string &r : rec.invalid)
        w.value(r);
    w.end_array();
    write_host(w);
    w.key("env").begin_object();
    for (const auto &[k, v] : env)
        w.key(k).value(v);
    w.end_object();
    w.key("correct").value(rec.failed == 0 && rec.attempted > 0);
    w.key("attempted").value(rec.attempted);
    w.key("failed").value(rec.failed);
    w.key("metrics").begin_object();
    for (const auto &[name, m] : rec.metrics) {
        w.key(name).begin_object();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.key("samples").value(m.samples);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    FlagParser flags("mps_e2e: one workload of the benchmark of record");
    flags.add_string("workload", "",
                     "gcn-powerlaw-f32 | gcn-amazon-bf16 | serve-cora | "
                     "serve-pubmed-churn");
    flags.add_int("seed", 1, "derives graph, features, weights, arrivals "
                             "and deltas");
    flags.add_double("seconds", 10.0, "length of the measured phases");
    flags.add_bool("traced", false,
                   "per-layer run: TraceSession on, layer probes");
    flags.add_string("trace-out", "", "Chrome trace file (traced runs)");
    flags.add_bool("setup-only", false,
                   "time the cold set-up, check its result, exit");
    flags.add_bool("smoke", false, "toy sizes, for the smoke test");
    flags.parse(argc, argv);

    Options opt;
    opt.workload = flags.get_string("workload");
    opt.seed = static_cast<uint64_t>(flags.get_int("seed"));
    opt.seconds = flags.get_double("seconds");
    opt.traced = flags.get_bool("traced");
    opt.trace_out = flags.get_string("trace-out");
    opt.setup_only = flags.get_bool("setup-only");
    opt.smoke = flags.get_bool("smoke");
    if (kWorkloads.count(opt.workload) == 0)
        fatal("unknown --workload '" + opt.workload + "'");
    if (!(opt.seconds > 0.0))
        fatal("--seconds must be positive");
    if (opt.traced && opt.setup_only)
        fatal("--traced and --setup-only exclude each other");

    Record rec;
    const std::map<std::string, std::string> env = mps_environment();
    if (!env.empty()) {
        std::cout << to_json(opt, rec, env) << std::endl;
        return 2;
    }
    if (opt.workload.rfind("gcn-", 0) == 0)
        run_gcn_workload(opt, rec);
    else
        run_serve_workload(opt, rec);
    std::cout << to_json(opt, rec, env) << std::endl;
    return 0;
}
