// Step benchmark binary: runs one workload and writes its raw
// samples, counters, checks, spans and environment stamp as one JSON
// document. run.py builds and launches it and turns the document into the
// reported metrics.
//
//   stepbench --workload <lm_serial|lm_tesseract> --seed <n>
//             --seconds <s> --trace <0|1> --out <path>
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// document is still written), 2 on a usage error or a non-Release build.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "perf/export.hpp"

namespace stepbench {

void Tracer::ensure_ranks(int ranks) {
  if (static_cast<int>(lanes_.size()) < ranks) {
    lanes_.resize(static_cast<std::size_t>(ranks));
  }
}

int Tracer::open(int rank, const char* name, std::int64_t step) {
  Lane& lane = lanes_[static_cast<std::size_t>(rank)];
  const int parent = lane.open.empty() ? -1 : lane.open.back();
  lane.spans.push_back({name, now_ns(), 0, parent, step});
  const int handle = static_cast<int>(lane.spans.size()) - 1;
  lane.open.push_back(handle);
  return handle;
}

void Tracer::close(int rank, int handle) {
  Lane& lane = lanes_[static_cast<std::size_t>(rank)];
  lane.spans[static_cast<std::size_t>(handle)].t1_ns = now_ns();
  lane.open.pop_back();
}

tsr::obs::JsonValue Tracer::to_json() const {
  tsr::obs::JsonValue out = tsr::obs::JsonValue::array();
  std::int64_t base = 0;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    for (const Span& s : lanes_[r].spans) {
      tsr::obs::JsonValue row = tsr::obs::JsonValue::array();
      row.push_back(s.name);
      row.push_back(s.t0_ns);
      row.push_back(s.t1_ns);
      row.push_back(s.parent < 0 ? std::int64_t{-1} : base + s.parent);
      row.push_back(static_cast<std::int64_t>(r));
      row.push_back(s.step);
      out.push_back(std::move(row));
    }
    base += static_cast<std::int64_t>(lanes_[r].spans.size());
  }
  return out;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void phase(const Options& opt, const char* name) {
  std::fprintf(stderr, "stepbench: workload %s phase %s\n",
               opt.workload.c_str(), name);
  std::fflush(stderr);
}

void tick() { std::fputs("stepbench: tick\n", stderr); }

}  // namespace stepbench

namespace {

using namespace stepbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload <lm_serial|"
               "lm_tesseract> --seed <n> --seconds <s> "
               "--trace <0|1> --out <path>\n",
               why);
  return 2;
}

tsr::obs::JsonValue doubles(const std::vector<double>& v) {
  tsr::obs::JsonValue a = tsr::obs::JsonValue::array();
  for (double x : v) a.push_back(x);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--out") {
      out_path = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (out_path.empty() || !(opt.seconds > 0.0)) {
    return usage("--out and a positive --seconds are required");
  }
  // Timings of an unoptimized build say nothing about the library.
  if (std::strcmp(STEPBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "stepbench: refusing to report timings from a %s build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 STEPBENCH_BUILD_TYPE);
    return 2;
  }

  void (*workload)(const Options&, Result&, Tracer&) = nullptr;
  if (opt.workload == "lm_serial") workload = run_lm_serial;
  if (opt.workload == "lm_tesseract") workload = run_lm_tesseract;
  if (workload == nullptr) return usage("unknown workload");

  Result res;
  Tracer tracer(opt.trace);
  tracer.ensure_ranks(1);
  try {
    workload(opt, res, tracer);
    if (opt.trace) {
      phase(opt, "probes");
      run_probes(opt, res, tracer);
      phase(opt, "phantom probes");
      run_phantom_probes(opt, res, tracer);
    }
  } catch (const std::exception& e) {
    res.check(false, std::string("exception: ") + e.what());
  }

  tsr::obs::JsonValue doc = tsr::obs::JsonValue::object();
  tsr::obs::JsonValue env = tsr::obs::JsonValue::object();
  tsr::perf::stamp_envelope(env, "stepbench");
  env["build_type"] = STEPBENCH_BUILD_TYPE;
  doc["env"] = std::move(env);
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<std::int64_t>(opt.seed);
  doc["trace"] = opt.trace;
  doc["setup_s"] = doubles(res.setup_s);
  doc["step_s"] = doubles(res.step_s);
  doc["traced_step_s"] = doubles(res.traced_step_s);
  doc["tokens_per_step"] = res.tokens_per_step;
  doc["attempted"] = res.attempted;
  doc["failed"] = res.failed;
  tsr::obs::JsonValue failures = tsr::obs::JsonValue::array();
  for (const std::string& f : res.failures) failures.push_back(f);
  doc["failures"] = std::move(failures);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  doc["peak_rss_kib"] = static_cast<std::int64_t>(ru.ru_maxrss);
  doc["counters"] = res.counters;
  res.raw["lm_step_gemm_flops"] = lm_step_gemm_flops();
  doc["raw"] = res.raw;
  doc["spans"] = tracer.to_json();

  std::ofstream out(out_path);
  out << doc.dump() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "stepbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return res.failed == 0 ? 0 : 1;
}
