#include "obs/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace tsr::obs {

namespace {

std::string_view last_segment(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

bool contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

}  // namespace

MetricClass classify_metric(std::string_view path) {
  const std::string_view seg = last_segment(path);
  const bool host =
      contains(seg, "wall") || contains(seg, "gflops") ||
      contains(seg, "speedup") || contains(seg, "host") ||
      seg.rfind("scheduler_", 0) == 0 || seg.rfind("pool_", 0) == 0 ||
      seg == "allocations" || seg == "reuses";
  return host ? MetricClass::HostWall : MetricClass::Deterministic;
}

bool higher_is_better(std::string_view path) {
  const std::string_view seg = last_segment(path);
  return contains(seg, "gflops") || contains(seg, "speedup") ||
         seg == "reuses" || seg == "pool_reuses";
}

NoiseBand noise_band(const std::vector<double>& history) {
  NoiseBand band;
  band.samples = static_cast<int>(history.size());
  if (history.empty()) return band;
  double sum = 0.0;
  for (double x : history) sum += x;
  band.mean = sum / static_cast<double>(history.size());
  double stddev = 0.0;
  if (history.size() >= 2) {
    double sq = 0.0;
    for (double x : history) sq += (x - band.mean) * (x - band.mean);
    stddev = std::sqrt(sq / static_cast<double>(history.size() - 1));
  }
  band.halfwidth = std::max(kHostNoiseRelFloor * std::fabs(band.mean),
                            kHostNoiseSigmas * stddev);
  return band;
}

// ---------------------------------------------------------------------------
// Document flattening.
// ---------------------------------------------------------------------------

namespace {

// Envelope and identity fields live in the record, not the metric set; the
// `timeline` subtree of run reports is a raw event dump, not a metric.
bool skip_root_key(const std::string& key) {
  return key == "schema_version" || key == "kind" || key == "backend" ||
         key == "workers" || key == "host_cores" || key == "kernel_variant" ||
         key == "cpu_features" || key == "run_label" || key == "git_sha" ||
         key == "git_dirty" || key == "fault_plan" || key == "bench" ||
         key == "name" || key == "timeline" || key == "drift_events";
}

void flatten(const JsonValue& v, const std::string& path, bool root,
             std::vector<std::pair<std::string, double>>* out) {
  switch (v.kind()) {
    case JsonValue::Kind::Int:
    case JsonValue::Kind::Double:
      out->emplace_back(path, v.as_double());
      return;
    case JsonValue::Kind::Bool:
      out->emplace_back(path, v.as_bool() ? 1.0 : 0.0);
      return;
    case JsonValue::Kind::Object:
      for (const auto& [key, member] : v.members()) {
        if (root && skip_root_key(key)) continue;
        flatten(member, path.empty() ? key : path + "/" + key, false, out);
      }
      return;
    case JsonValue::Kind::Array: {
      // Arrays of named objects (bench cases) key by name so insertion or
      // removal of a case shifts nothing else; unnamed items key by index.
      std::set<std::string> used;
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        const JsonValue& item = v.items()[i];
        std::string key = std::to_string(i);
        if (const JsonValue* name = item.find("name")) {
          if (name->is_string() && !name->as_string().empty()) {
            key = name->as_string();
          }
        }
        if (!used.insert(key).second) key += "#" + std::to_string(i);
        flatten(item, path.empty() ? key : path + "/" + key, false, out);
      }
      return;
    }
    case JsonValue::Kind::Null:
    case JsonValue::Kind::String:
      return;  // not metrics
  }
}

std::string get_string(const JsonValue& doc, const char* key,
                       const char* dflt) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string(dflt);
}

std::int64_t get_int(const JsonValue& doc, const char* key,
                     std::int64_t dflt) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_int() : dflt;
}

}  // namespace

std::string LedgerRecord::host_env_key() const {
  std::ostringstream os;
  os << backend << "|" << workers << "|" << host_cores << "|" << kernel_variant
     << "|" << cpu_features;
  return os.str();
}

const double* LedgerRecord::find_metric(std::string_view path) const {
  for (const auto& [p, v] : metrics) {
    if (p == path) return &v;
  }
  return nullptr;
}

JsonValue LedgerRecord::to_json() const {
  JsonValue j = JsonValue::object();
  j["ledger_version"] = kLedgerVersion;
  j["seq"] = seq;
  j["schema_version"] = schema_version;
  j["kind"] = kind;
  j["source"] = source;
  j["backend"] = backend;
  j["workers"] = workers;
  j["host_cores"] = host_cores;
  j["kernel_variant"] = kernel_variant;
  j["cpu_features"] = cpu_features;
  j["fault_plan"] = fault_plan;
  j["git_sha"] = git_sha;
  j["git_dirty"] = git_dirty;
  JsonValue m = JsonValue::object();
  for (const auto& [path, value] : metrics) m[path] = value;
  j["metrics"] = std::move(m);
  return j;
}

bool LedgerRecord::from_json(const JsonValue& line, LedgerRecord* out,
                             std::string* err) {
  if (!line.is_object()) {
    *err = "ledger line is not an object";
    return false;
  }
  const std::int64_t version = get_int(line, "ledger_version", -1);
  if (version != kLedgerVersion) {
    *err = "ledger_version " + std::to_string(version) +
           " not supported (this build writes " +
           std::to_string(kLedgerVersion) + "); mixed ledgers are rejected";
    return false;
  }
  out->seq = get_int(line, "seq", 0);
  out->schema_version = get_int(line, "schema_version", 0);
  out->kind = get_string(line, "kind", "");
  out->source = get_string(line, "source", "");
  out->backend = get_string(line, "backend", "");
  out->workers = get_int(line, "workers", 0);
  out->host_cores = get_int(line, "host_cores", 0);
  out->kernel_variant = get_string(line, "kernel_variant", "");
  out->cpu_features = get_string(line, "cpu_features", "");
  out->fault_plan = get_string(line, "fault_plan", "none");
  out->git_sha = get_string(line, "git_sha", "unknown");
  const JsonValue* dirty = line.find("git_dirty");
  out->git_dirty = dirty != nullptr && dirty->kind() == JsonValue::Kind::Bool &&
                   dirty->as_bool();
  out->metrics.clear();
  if (const JsonValue* m = line.find("metrics")) {
    for (const auto& [path, value] : m->members()) {
      if (value.is_number()) out->metrics.emplace_back(path, value.as_double());
    }
  }
  if (out->kind.empty() || out->source.empty()) {
    *err = "ledger line missing kind/source";
    return false;
  }
  return true;
}

bool ingest_document(const JsonValue& doc, LedgerRecord* out,
                     std::string* err) {
  if (!doc.is_object()) {
    *err = "document is not a JSON object";
    return false;
  }
  const JsonValue* sv = doc.find("schema_version");
  if (sv == nullptr || !sv->is_number()) {
    *err = "document carries no schema_version envelope "
           "(not a BENCH_*/REPORT_* artifact?)";
    return false;
  }
  out->schema_version = sv->as_int();
  out->kind = get_string(doc, "kind", "");
  if (out->kind.empty()) {
    *err = "document carries no kind envelope field";
    return false;
  }
  // The series name: bench documents carry it as "bench", run reports as
  // "name"; fall back to the kind for anything else.
  out->source = get_string(doc, "bench", "");
  if (out->source.empty()) out->source = get_string(doc, "name", "");
  if (out->source.empty()) out->source = out->kind;
  out->backend = get_string(doc, "backend", "");
  out->workers = get_int(doc, "workers", 0);
  out->host_cores = get_int(doc, "host_cores", 0);
  out->kernel_variant = get_string(doc, "kernel_variant", "");
  out->cpu_features = get_string(doc, "cpu_features", "");
  out->fault_plan = get_string(doc, "fault_plan", "none");
  out->git_sha = get_string(doc, "git_sha", "unknown");
  const JsonValue* dirty = doc.find("git_dirty");
  out->git_dirty = dirty != nullptr && dirty->kind() == JsonValue::Kind::Bool &&
                   dirty->as_bool();
  out->metrics.clear();
  flatten(doc, "", true, &out->metrics);
  if (out->metrics.empty()) {
    *err = "document has no numeric metrics to record";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Ledger file.
// ---------------------------------------------------------------------------

bool Ledger::load(const std::string& path, Ledger* out, std::string* err) {
  out->path_ = path;
  out->records_.clear();
  out->valid_bytes_ = 0;
  out->torn_ = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return true;  // no history yet: recording bootstraps the file
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();
  std::string record_err;
  const JsonlScan scan = scan_jsonl(data, [&](JsonValue line) {
    if (!record_err.empty()) return;
    LedgerRecord rec;
    if (LedgerRecord::from_json(line, &rec, &record_err)) {
      out->records_.push_back(std::move(rec));
    }
  });
  if (!record_err.empty()) {
    *err = path + ": " + record_err;
    return false;
  }
  if (scan.status == JsonlScan::Status::Corrupt) {
    *err = path + ": " + scan.error;
    return false;
  }
  out->valid_bytes_ = scan.consumed;
  // A torn trailing line OR trailing bytes without a newline both mean the
  // last append never finished; the next append truncates back to the last
  // complete line.
  out->torn_ = scan.status == JsonlScan::Status::TornTail ||
               scan.consumed != data.size();
  return true;
}

const LedgerRecord* Ledger::latest(std::string_view series_key) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->series_key() == series_key) return &*it;
  }
  return nullptr;
}

std::vector<double> Ledger::host_history(const LedgerRecord& like,
                                         std::string_view metric) const {
  std::vector<double> out;
  for (const LedgerRecord& rec : records_) {
    if (rec.series_key() != like.series_key()) continue;
    if (rec.host_env_key() != like.host_env_key()) continue;
    if (const double* v = rec.find_metric(metric)) out.push_back(*v);
  }
  return out;
}

bool Ledger::append(const LedgerRecord& rec, bool* appended,
                    std::string* err) {
  *appended = false;
  std::int64_t next_seq = 0;
  for (const LedgerRecord& r : records_) {
    next_seq = std::max(next_seq, r.seq + 1);
  }
  if (const LedgerRecord* last = latest(rec.series_key())) {
    if (last->schema_version != rec.schema_version) {
      *err = "series " + rec.series_key() + " holds schema_version " +
             std::to_string(last->schema_version) +
             " but the document carries " +
             std::to_string(rec.schema_version) +
             "; start a fresh ledger instead of mixing schema generations";
      return false;
    }
    const bool same_envelope =
        last->kind == rec.kind && last->source == rec.source &&
        last->backend == rec.backend && last->workers == rec.workers &&
        last->host_cores == rec.host_cores &&
        last->kernel_variant == rec.kernel_variant &&
        last->cpu_features == rec.cpu_features &&
        last->fault_plan == rec.fault_plan && last->git_sha == rec.git_sha &&
        last->git_dirty == rec.git_dirty;
    if (same_envelope && last->metrics == rec.metrics) {
      return true;  // identical re-record: idempotent
    }
  }
  if (torn_) {
    // Heal the torn tail before extending the file; the damaged bytes were
    // never a complete record.
    std::error_code ec;
    std::filesystem::resize_file(path_, valid_bytes_, ec);
    if (ec) {
      *err = path_ + ": cannot truncate torn tail: " + ec.message();
      return false;
    }
    torn_ = false;
  }
  LedgerRecord stored = rec;
  stored.seq = next_seq;
  const std::string line = stored.to_json().dump() + "\n";
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out || !(out << line) || !out.flush()) {
    *err = path_ + ": write failed";
    return false;
  }
  valid_bytes_ += line.size();
  records_.push_back(std::move(stored));
  *appended = true;
  return true;
}

// ---------------------------------------------------------------------------
// Gating.
// ---------------------------------------------------------------------------

namespace {

void add_note(GateReport* rep, const std::string& series,
              const std::string& note, bool structural) {
  GateFinding f;
  f.series = series;
  f.note = note;
  f.structural = structural;
  rep->rows.push_back(std::move(f));
  if (structural) rep->structural += 1;
}

}  // namespace

GateReport gate_documents(const Ledger& baseline,
                          const std::vector<JsonValue>& docs,
                          const GateOptions& opt) {
  GateReport rep;
  for (const JsonValue& doc : docs) {
    rep.documents += 1;
    LedgerRecord cur;
    std::string err;
    if (!ingest_document(doc, &cur, &err)) {
      add_note(&rep, "<unparsed>", err, /*structural=*/true);
      continue;
    }
    const std::string series = cur.series_key();
    const LedgerRecord* base = baseline.latest(series);
    if (base == nullptr) {
      add_note(&rep, series,
               "no baseline record in " + baseline.path() +
                   "; run `tsr_gate record` to establish one",
               /*structural=*/false);
      continue;
    }
    if (base->schema_version != cur.schema_version) {
      add_note(&rep, series,
               "schema_version " + std::to_string(cur.schema_version) +
                   " vs baseline " + std::to_string(base->schema_version) +
                   "; re-record the baseline before gating",
               /*structural=*/true);
      continue;
    }
    if (base->fault_plan != cur.fault_plan) {
      // The fingerprint names the experiment, so a mismatch fails — but the
      // metric comparison still runs below: the table then shows exactly
      // which sim-clock numbers the foreign fault plan moved.
      add_note(&rep, series,
               "fault_plan \"" + cur.fault_plan + "\" vs baseline \"" +
                   base->fault_plan + "\"",
               /*structural=*/true);
    }
    for (const auto& [path, value] : cur.metrics) {
      const MetricClass cls = classify_metric(path);
      if (cls == MetricClass::Deterministic) {
        const double* b = base->find_metric(path);
        if (b == nullptr) {
          add_note(&rep, series,
                   "metric " + path + " present now but absent from baseline",
                   /*structural=*/true);
          continue;
        }
        rep.deterministic_compared += 1;
        if (*b != value) {
          GateFinding f;
          f.series = series;
          f.metric = path;
          f.cls = cls;
          f.baseline = *b;
          f.current = value;
          f.regression = true;
          rep.rows.push_back(std::move(f));
          rep.deterministic_regressions += 1;
        }
      } else {
        if (opt.deterministic_only) continue;
        GateFinding f;
        f.series = series;
        f.metric = path;
        f.cls = cls;
        f.current = value;
        f.band = noise_band(baseline.host_history(cur, path));
        f.baseline = f.band.mean;
        if (f.band.samples == 0) {
          rep.host_without_history += 1;
          f.note = "no same-environment history";
        } else {
          rep.host_compared += 1;
          f.regression = higher_is_better(path) ? value < f.band.lo()
                                                : value > f.band.hi();
          if (f.regression) rep.host_regressions += 1;
        }
        rep.rows.push_back(std::move(f));
      }
    }
    // Metrics the baseline had but this run no longer emits are silent
    // coverage loss; flag them like any other structural drift.
    for (const auto& [path, value] : base->metrics) {
      (void)value;
      if (classify_metric(path) == MetricClass::Deterministic &&
          cur.find_metric(path) == nullptr) {
        add_note(&rep, series,
                 "metric " + path + " present in baseline but absent now",
                 /*structural=*/true);
      }
    }
  }
  return rep;
}

std::string GateReport::to_string(bool verbose) const {
  std::ostringstream os;
  char buf[256];
  for (const GateFinding& f : rows) {
    if (f.metric.empty()) {
      os << (f.structural ? "STRUCTURAL " : "note       ") << f.series << ": "
         << f.note << "\n";
      continue;
    }
    const bool host = f.cls == MetricClass::HostWall;
    if (!f.regression && !verbose) continue;
    if (host && f.band.samples > 0) {
      std::snprintf(buf, sizeof buf,
                    "%-10s host %s/%s: %.6g vs band [%.6g, %.6g] (n=%d)\n",
                    f.regression ? "REGRESSION" : "ok", f.series.c_str(),
                    f.metric.c_str(), f.current, f.band.lo(), f.band.hi(),
                    f.band.samples);
    } else if (host) {
      std::snprintf(buf, sizeof buf, "%-10s host %s/%s: %.6g (%s)\n", "ok",
                    f.series.c_str(), f.metric.c_str(), f.current,
                    f.note.c_str());
    } else {
      std::snprintf(buf, sizeof buf,
                    "%-10s det  %s/%s: %.17g vs baseline %.17g\n",
                    f.regression ? "REGRESSION" : "ok", f.series.c_str(),
                    f.metric.c_str(), f.current, f.baseline);
    }
    os << buf;
  }
  std::snprintf(buf, sizeof buf,
                "%d document%s: %d deterministic metrics (%d regression%s), "
                "%d host metrics in band check (%d out of band, %d without "
                "history), %d structural finding%s\n",
                documents, documents == 1 ? "" : "s", deterministic_compared,
                deterministic_regressions,
                deterministic_regressions == 1 ? "" : "s", host_compared,
                host_regressions, host_without_history, structural,
                structural == 1 ? "" : "s");
  os << buf;
  return os.str();
}

}  // namespace tsr::obs
