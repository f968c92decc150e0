#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "api/client.h"
#include "layers.h"
#include "meta/broker.h"
#include "trace/tracer.h"

namespace railbench {
namespace {

using railgun::Status;
using railgun::api::Client;
using railgun::api::ClientOptions;
using railgun::api::EventResult;
using railgun::api::ResultFuture;
using railgun::api::Row;

constexpr Micros kSecond = 1000000;
constexpr Micros kHour = 3600 * kSecond;
// Event time starts here; any positive origin would do.
constexpr Micros kBaseTime = 1000000 * kSecond;
constexpr size_t kBatchRows = 256;
// Set-up runs this many times per run and setup_s is their median.
constexpr int kSetupRepeats = 3;
// Closed loops seed this many events at set-up. Cluster start and DDL
// alone take tens of ms, most of it file syncs and thread wake-ups whose
// cost follows the shared host's load rather than the program.
constexpr uint64_t kClosedLoopHistoryEvents = 25000;
constexpr Micros kWarmup = kSecond;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec ingest;
  ingest.name = "ingest_batch";
  ingest.selects = {
      "SELECT sum(amount), count(*), avg(amount), max(amount) FROM payments "
      "GROUP BY cardId OVER sliding 1 hour",
      "SELECT sum(amount), count(*) FROM payments "
      "GROUP BY cardId, merchantId OVER sliding 1 hour"};
  ingest.footprint_events = 120000;
  ingest.oracle = {
      {Agg::kSum, kHour, false, "sum(amount) over sliding 1h by cardId"},
      {Agg::kCount, kHour, false, "count(*) over sliding 1h by cardId"},
      {Agg::kAvg, kHour, false, "avg(amount) over sliding 1h by cardId"},
      {Agg::kMax, kHour, false, "max(amount) over sliding 1h by cardId"},
      {Agg::kSum, kHour, true,
       "sum(amount) over sliding 1h by cardId,merchantId"},
      {Agg::kCount, kHour, true,
       "count(*) over sliding 1h by cardId,merchantId"}};
  specs.push_back(ingest);

  WorkloadSpec sliding;
  sliding.name = "sliding_openloop";
  sliding.open_loop = true;
  sliding.units = 1;
  sliding.partitions = 1;
  // Eight metrics, sum and count in turn, each over its own window
  // length: no two windows share a tail iterator.
  const int lengths[] = {11, 13, 15, 17, 19, 21, 23, 25};
  for (int i = 0; i < 8; ++i) {
    const std::string len = std::to_string(lengths[i]);
    const bool sum = i % 2 == 0;
    sliding.selects.push_back(std::string("SELECT ") +
                              (sum ? "sum(amount)" : "count(*)") +
                              " FROM payments GROUP BY cardId OVER sliding " +
                              len + " seconds");
    sliding.oracle.push_back(
        {sum ? Agg::kSum : Agg::kCount, lengths[i] * kSecond, false,
         std::string(sum ? "sum(amount)" : "count(*)") + " over sliding " +
             len + "s by cardId"});
  }
  sliding.chunk_target_bytes = 4096;
  sliding.cache_capacity = 32;
  sliding.rate = 1000;
  sliding.history = 25 * kSecond;
  sliding.timestamp_grain = 10000;
  specs.push_back(sliding);

  WorkloadSpec remote;
  remote.name = "remote_batch";
  remote.remote = true;
  remote.selects = {
      "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 hour"};
  remote.footprint_events = 240000;
  remote.oracle = {
      {Agg::kCount, kHour, false, "count(*) over sliding 1h by cardId"}};
  specs.push_back(remote);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

Row ToRow(const Payment& p) {
  return Row()
      .At(p.ts)
      .WithId(p.id)
      .Set("cardId", CardName(p.card))
      .Set("merchantId", MerchantName(p.merchant))
      .Set("amount", static_cast<double>(p.cents));
}

// Checks every reply against the oracle. Each submitted payment is fed
// to the oracle in submission order whether or not its reply came back.
class Checker {
 public:
  explicit Checker(const std::vector<OracleMetric>& metrics)
      : oracle_(metrics) {}

  void Check(const Payment& p, const EventResult& r) {
    ++attempted_;
    const std::vector<double> expected = oracle_.Apply(p);
    if (!r.ok()) {
      ++failed_;
      Note("event " + std::to_string(p.id) + " failed: " +
           r.status.ToString());
      return;
    }
    const auto& metrics = oracle_.metrics();
    if (r.metrics.size() != metrics.size()) {
      Mismatch(p, "reply has " + std::to_string(r.metrics.size()) +
                      " metrics, expected " + std::to_string(metrics.size()));
      return;
    }
    for (size_t i = 0; i < metrics.size(); ++i) {
      const railgun::api::MetricValue* got = &r.metrics[i];
      if (got->metric != metrics[i].name) got = r.Find(metrics[i].name);
      if (got == nullptr || got->metric != metrics[i].name) {
        Mismatch(p, "no reply for " + metrics[i].name);
        return;
      }
      const std::string group = Oracle::GroupKey(metrics[i], p);
      const double value = got->value.ToNumber();
      if (got->group != group || value != expected[i]) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), " = %.17g, expected %.17g", value,
                      expected[i]);
        Mismatch(p, metrics[i].name + " [" + got->group + "]" + buf);
        return;
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }

 private:
  void Mismatch(const Payment& p, const std::string& what) {
    ++mismatches_;
    Note("mismatch on event " + std::to_string(p.id) + " (" +
         CardName(p.card) + ", t=" + std::to_string(p.ts) + "): " + what);
  }
  void Note(const std::string& line) {
    if (++notes_ <= 5) std::fprintf(stderr, "railbench: %s\n", line.c_str());
  }

  Oracle oracle_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t notes_ = 0;
};

// One cluster plus the client that drives it. Remote workloads host a
// meta::Broker (bus server + one colocated node) in this process and
// attach the client over loopback TCP.
class Deployment {
 public:
  ~Deployment() { Stop(); }

  Status Start(const WorkloadSpec& spec, const std::string& dir) {
    railgun::engine::ClusterOptions engine;
    engine.num_nodes = 1;
    engine.node.num_processor_units = spec.units;
    engine.base_dir = dir;
    engine.bus.delivery_delay = 0;
    auto& reservoir = engine.node.unit.task.reservoir;
    if (spec.chunk_target_bytes != 0) {
      reservoir.chunk_target_bytes = spec.chunk_target_bytes;
    }
    if (spec.cache_capacity != 0) reservoir.cache_capacity = spec.cache_capacity;

    ClientOptions client_options;
    if (spec.remote) {
      railgun::meta::BrokerOptions broker_options;
      broker_options.cluster = engine;
      broker_ = std::make_unique<railgun::meta::Broker>(broker_options);
      RAILGUN_RETURN_IF_ERROR(broker_->Start());
      client_options.remote_address = broker_->address();
    } else {
      client_options.engine = engine;
      client_options.num_nodes = 1;
      client_options.processor_units_per_node = spec.units;
      client_options.base_dir = dir;
    }
    client_ = std::make_unique<Client>(client_options);
    RAILGUN_RETURN_IF_ERROR(client_->Start());
    RAILGUN_RETURN_IF_ERROR(client_->Execute(
        "CREATE STREAM payments (cardId STRING, merchantId STRING, amount "
        "DOUBLE) PARTITION BY cardId PARTITIONS " +
        std::to_string(spec.partitions)));
    for (const std::string& select : spec.selects) {
      RAILGUN_RETURN_IF_ERROR(client_->Execute("ADD METRIC " + select));
    }
    return Status::OK();
  }

  void Stop() {
    if (client_ != nullptr) client_->Stop();
    if (broker_ != nullptr) broker_->Stop();
  }

  Client* client() { return client_.get(); }
  railgun::engine::Cluster* cluster() {
    return broker_ != nullptr ? broker_->cluster() : client_->cluster();
  }

 private:
  // Declared first so the client is destroyed before the broker.
  std::unique_ptr<railgun::meta::Broker> broker_;
  std::unique_ptr<Client> client_;
};

struct Batch {
  std::vector<Payment> payments;
  std::vector<Row> rows;
  std::vector<EventResult> results;
};

void CheckBatch(const Batch& batch, Checker* checker) {
  for (size_t i = 0; i < batch.payments.size(); ++i) {
    checker->Check(batch.payments[i], batch.results[i]);
  }
}

struct LoopResult {
  uint64_t events = 0;
  Micros elapsed = 0;
};

// Closed loop from one thread: one SubmitBatch of up to kBatchRows rows
// in flight at a time; the next batch leaves when every reply of the
// previous one is in. Runs whole batches until `duration` has passed
// or `max_events` were sent. A batch's replies are checked after the
// next batch has been handed off. Latency of an event: batch hand-off
// to its reply.
LoopResult ClosedLoop(Client* client, EventSource* source, Checker* checker,
                      Micros duration, uint64_t max_events,
                      std::vector<int64_t>* latencies,
                      const std::function<void()>& after_batch = nullptr) {
  LoopResult out;
  Batch cur;
  Batch prev;
  bool have_prev = false;
  const Micros start = NowMicros();
  while (out.events < max_events && NowMicros() - start < duration) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kBatchRows, max_events - out.events));
    cur.payments.clear();
    cur.rows.clear();
    for (size_t i = 0; i < n; ++i) {
      cur.payments.push_back(source->Next());
      cur.rows.push_back(ToRow(cur.payments.back()));
    }
    const Micros t0 = NowMicros();
    std::vector<ResultFuture> futures = client->SubmitBatch("payments", cur.rows);
    if (have_prev) CheckBatch(prev, checker);
    cur.results.resize(n);
    for (size_t i = 0; i < n; ++i) {
      cur.results[i] = futures[i].Get();
      if (latencies != nullptr) latencies->push_back(NowMicros() - t0);
    }
    out.events += n;
    if (after_batch) after_batch();
    std::swap(prev, cur);
    have_prev = true;
  }
  out.elapsed = NowMicros() - start;
  if (have_prev) CheckBatch(prev, checker);
  return out;
}

// Memory and disk after a fixed amount of work: a faster engine must
// not read as a bigger one just because it stored more events.
struct Footprint {
  bool taken = false;
  double rss_mb = 0;
  double disk_mb = 0;

  void Take(const std::string& dir) {
    taken = true;
    rss_mb = PeakRssMb();
    disk_mb = static_cast<double>(DirBytes(dir)) / (1 << 20);
    std::printf("# disk: reservoir %.2f MB, state store %.2f MB, "
                "checkpoints %.2f MB\n",
                DirBytes(dir, "/reservoir/") / 1048576.0,
                DirBytes(dir, "/db/") / 1048576.0,
                DirBytes(dir, "/ckpt/") / 1048576.0);
  }
};

struct Phase {
  std::vector<int64_t> latencies;  // Microseconds, one per event.
  uint64_t completed = 0;          // Events with an OK reply.
  Micros elapsed = 0;
  int64_t cpu = 0;
  bool backlog_grew = false;
};

// Fixed-rate open loop: a sender thread submits event i at its
// scheduled time start + i / rate regardless of replies; this thread
// collects replies in order. Latency runs from the scheduled send time,
// so a stall is charged to every event it delays. Events due in the
// first kWarmup are checked but not measured.
Phase OpenLoop(Client* client, EventSource* source, Checker* checker,
               double rate, Micros duration) {
  struct Sent {
    Payment payment;
    ResultFuture future;
    Micros scheduled;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> queue;
  bool sender_done = false;
  std::atomic<int64_t> cpu_start{0};
  std::vector<int64_t> lateness;

  const Micros start = NowMicros() + 10000;
  const uint64_t warmup_events = static_cast<uint64_t>(rate * kWarmup / kSecond);
  const uint64_t total_events =
      warmup_events + static_cast<uint64_t>(rate * duration / kSecond);
  std::thread sender([&] {
    for (uint64_t i = 0; i < total_events; ++i) {
      const Micros scheduled =
          start + static_cast<Micros>(static_cast<double>(i) * kSecond / rate);
      SleepUntil(scheduled);
      lateness.push_back(NowMicros() - scheduled);
      if (i == warmup_events) cpu_start.store(ProcessCpuMicros());
      const Payment p = source->Next();
      ResultFuture f = client->Submit("payments", ToRow(p));
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({p, std::move(f), scheduled});
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });

  Phase phase;
  std::vector<Micros> scheduled_at;
  std::vector<Micros> done_at;
  scheduled_at.reserve(total_events);
  done_at.reserve(total_events);
  for (uint64_t i = 0;; ++i) {
    Sent sent;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || sender_done; });
      if (queue.empty()) break;
      sent = std::move(queue.front());
      queue.pop_front();
    }
    const EventResult result = sent.future.Get();
    const Micros done = NowMicros();
    checker->Check(sent.payment, result);
    if (i < warmup_events) continue;
    phase.latencies.push_back(done - sent.scheduled);
    scheduled_at.push_back(sent.scheduled);
    done_at.push_back(done);
    if (result.ok()) ++phase.completed;
  }
  sender.join();
  const int64_t cpu_end = ProcessCpuMicros();
  phase.cpu = cpu_end - cpu_start.load();
  if (!done_at.empty()) {
    phase.elapsed = done_at.back() - scheduled_at.front();
    // Backlog (sent but unanswered) when the last event was due, against
    // the backlog half way through: a rate the engine cannot sustain
    // shows a backlog that is still growing when the schedule ends.
    auto backlog_at = [&](Micros t) {
      const auto sent = std::upper_bound(scheduled_at.begin(),
                                         scheduled_at.end(), t) -
                        scheduled_at.begin();
      const auto answered =
          std::count_if(done_at.begin(), done_at.end(),
                        [t](Micros d) { return d <= t; });
      return static_cast<double>(sent - answered);
    };
    const double mid = backlog_at(scheduled_at[scheduled_at.size() / 2]);
    const double end = backlog_at(scheduled_at.back());
    phase.backlog_grew = end > 2 * mid + rate / 4;
    std::printf("# backlog: mid-run %.0f, at end of schedule %.0f events\n",
                mid, end);
  }
  std::printf("# generator lateness: p50 %.0f us, p99 %.0f us, max %.0f us\n",
              Percentile(&lateness, 50), Percentile(&lateness, 99),
              Percentile(&lateness, 100));
  return phase;
}

struct StageRead {
  int64_t count = 0;
  double p50 = 0;
  double p99 = 0;
};

StageRead ReadStage(railgun::introspect::Registry* registry,
                    const std::string& stage) {
  const railgun::LatencyHistogram h =
      registry->histogram("trace.stage." + stage + "_us")->Snapshot();
  return {h.Count(), static_cast<double>(h.ValueAtPercentile(50)),
          static_cast<double>(h.ValueAtPercentile(99))};
}

// Per-layer metrics read straight from the cluster registry after the
// last reply (not from the published internals samples, which lag).
// Every per-event stage must have counted each traced request.
bool ReportStages(railgun::engine::Cluster* cluster, uint64_t traced_requests,
                  Report* report) {
  railgun::introspect::Registry* registry = cluster->registry();
  bool ok = true;
  for (const char* stage : {"client.submit", "frontend.enqueue",
                            "unit.window_apply", "frontend.complete"}) {
    const StageRead read = ReadStage(registry, stage);
    if (read.count != static_cast<int64_t>(traced_requests)) {
      std::fprintf(stderr,
                   "railbench: stage %s counted %lld of %llu traced "
                   "requests\n",
                   stage, static_cast<long long>(read.count),
                   static_cast<unsigned long long>(traced_requests));
      ok = false;
    }
  }
  const StageRead process = ReadStage(registry, "unit.process");
  const StageRead apply = ReadStage(registry, "unit.window_apply");
  report->Add("frontend.enqueue_us", ReadStage(registry, "frontend.enqueue").p50, "us");
  report->Add("frontend.produce_us", ReadStage(registry, "frontend.produce").p50, "us");
  report->Add("broker.append_us", ReadStage(registry, "broker.append").p50, "us");
  report->Add("broker.poll_wait_us", ReadStage(registry, "broker.poll").p50, "us");
  report->Add("unit.decode_us", ReadStage(registry, "unit.decode").p50, "us");
  report->Add("unit.process_us", process.p50, "us");
  report->Add("unit.events_per_process",
              process.count > 0 ? static_cast<double>(apply.count) / process.count : 0,
              "events");
  report->Add("unit.window_apply_us", apply.p50, "us");
  report->Add("unit.window_apply_p99_us", apply.p99, "us");
  report->Add("reply.publish_us", ReadStage(registry, "reply.publish").p50, "us");
  report->Add("frontend.complete_us", ReadStage(registry, "frontend.complete").p50, "us");

  uint64_t sst_bytes = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    railgun::engine::RailgunNode* node = cluster->node(n);
    for (int u = 0; u < node->num_units(); ++u) {
      railgun::engine::ProcessorUnit* unit = node->unit(u);
      for (const auto& tp : unit->active_tasks()) {
        railgun::engine::TaskProcessor* task = unit->FindProcessor(tp);
        if (task != nullptr) sst_bytes += task->db()->TotalSstBytes();
      }
    }
  }
  report->Add("state.sst_mb", static_cast<double>(sst_bytes) / (1 << 20), "MB");
  return ok;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

EventSource::EventSource(const WorkloadSpec& spec, uint64_t seed, double rate)
    : spec_(spec), gen_(seed), rate_(rate), ts_(kBaseTime) {
  history_events_ =
      spec_.open_loop
          ? static_cast<uint64_t>(rate_ * spec_.history / kSecond)
          : kClosedLoopHistoryEvents;
}

Payment EventSource::Next() {
  if (spec_.open_loop) {
    // Event time follows the send schedule, in whole grains, so several
    // events share a timestamp and some sit exactly on a window edge.
    const Micros offset =
        static_cast<Micros>(static_cast<double>(k_) * kSecond / rate_);
    ts_ = kBaseTime + offset / spec_.timestamp_grain * spec_.timestamp_grain;
  } else {
    ts_ += gen_.NextStep();
  }
  ++k_;
  return gen_.Next(ts_);
}

bool RunWorkload(const RunOptions& options, Report* report) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  const double rate = options.rate > 0 ? options.rate : spec->rate;
  const Micros duration = static_cast<Micros>(options.seconds) * kSecond;
  railgun::trace::Tracer* tracer = railgun::trace::Tracer::Global();
  tracer->Disable();

  // Set-up: cluster start, DDL and seeding history (open loop: across
  // the longest window). Repeated from scratch; the last deployment is
  // the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Checker> checker;
  std::unique_ptr<EventSource> source;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (deployment != nullptr) {
      report->attempted += checker->attempted();
      report->failed += checker->failed();
      if (checker->mismatches() > 0) report->correct = false;
    }
    deployment.reset();
    // Hand the torn-down deployment's memory back, so that peak_rss_mb
    // measures the deployment under test, not leftovers of earlier ones.
    malloc_trim(0);
    ResetDir(options.dir);
    checker = std::make_unique<Checker>(spec->oracle);
    source = std::make_unique<EventSource>(*spec, options.seed, rate);
    const Micros t0 = NowMicros();
    deployment = std::make_unique<Deployment>();
    const Status started = deployment->Start(*spec, options.dir);
    if (!started.ok()) {
      std::fprintf(stderr, "railbench: set-up failed: %s\n",
                   started.ToString().c_str());
      return false;
    }
    ClosedLoop(deployment->client(), source.get(), checker.get(),
               100 * duration, source->history_events(), nullptr);
    setup_seconds.push_back(static_cast<double>(NowMicros() - t0) / kSecond);
  }
  Client* client = deployment->client();

  railgun::trace::TracerOptions trace_options;
  trace_options.sample_every = uint64_t{1} << 30;  // Histograms only.
  trace_options.slow_threshold_us = 0;
  Phase phase;
  Footprint footprint;
  uint64_t traced_requests = 0;
  if (spec->open_loop) {
    if (options.trace) tracer->Enable(trace_options);
    const uint64_t before = checker->attempted() - checker->failed();
    phase = OpenLoop(client, source.get(), checker.get(), rate, duration);
    traced_requests = checker->attempted() - checker->failed() - before;
    if (phase.backlog_grew) {
      std::printf("# backlog still growing at the end: the run failed\n");
    }
  } else {
    ClosedLoop(client, source.get(), checker.get(), kWarmup, UINT64_MAX,
               nullptr);
    if (options.trace) tracer->Enable(trace_options);
    const uint64_t before = checker->attempted() - checker->failed();
    const int64_t cpu0 = ProcessCpuMicros();
    const LoopResult loop = ClosedLoop(
        client, source.get(), checker.get(), duration, UINT64_MAX,
        &phase.latencies, [&] {
          if (!footprint.taken &&
              source->position() >= spec->footprint_events) {
            footprint.Take(options.dir);
          }
        });
    phase.cpu = ProcessCpuMicros() - cpu0;
    phase.elapsed = loop.elapsed;

    phase.completed = checker->attempted() - checker->failed() - before;
    traced_requests = phase.completed;
  }
  tracer->Disable();
  report->attempted += checker->attempted();
  report->failed += checker->failed();
  if (phase.backlog_grew) report->failed += phase.latencies.size();
  if (checker->mismatches() > 0) {
    std::fprintf(stderr, "railbench: %llu replies disagree with the oracle\n",
                 static_cast<unsigned long long>(checker->mismatches()));
    report->correct = false;
  }

  const double completed = static_cast<double>(std::max<uint64_t>(phase.completed, 1));
  const double throughput = completed * kSecond / std::max<Micros>(phase.elapsed, 1);
  const double cpu_per_event = static_cast<double>(phase.cpu) / completed;
  const size_t samples = phase.latencies.size();
  const double p50 = Percentile(&phase.latencies, 50) / 1000.0;
  const double p99 = Percentile(&phase.latencies, 99) / 1000.0;
  const double p999 = Percentile(&phase.latencies, 99.9) / 1000.0;
  std::printf("# %s seed %llu: %zu latency samples (%zu beyond p99.9), "
              "%.0f events/s, %.1f us CPU/event, p50 %.3f ms, p99 %.3f ms, "
              "p99.9 %.3f ms\n",
              spec->name.c_str(), static_cast<unsigned long long>(options.seed),
              samples, samples / 1000, throughput, cpu_per_event, p50, p99,
              p999);

  if (options.trace) {
    if (!ReportStages(deployment->cluster(), traced_requests, report)) {
      report->correct = false;
    }
    deployment.reset();
    const uint64_t replay_events =
        source->history_events() + (spec->open_loop ? 10000 : 50000);
    if (!RunLayerReplay(*spec, options.seed, rate, replay_events,
                        options.dir + "/replay", report)) {
      return false;
    }
  } else {
    if (!footprint.taken) {
      if (!spec->open_loop) {
        std::printf("# footprint point of %llu events not reached; "
                    "footprint taken at the end\n",
                    static_cast<unsigned long long>(spec->footprint_events));
      }
      footprint.Take(options.dir);
    }
    deployment->Stop();
    report->Add("throughput_eps", throughput, "events/s");
    report->Add("latency_p50_ms", p50, "ms");
    report->Add("cpu_us_per_event", cpu_per_event, "us");
    report->Add("peak_rss_mb", footprint.rss_mb, "MB");
    report->Add("disk_mb", footprint.disk_mb, "MB");
    report->Add("setup_s", Median(setup_seconds), "s");
    deployment.reset();
  }
  RemoveDir(options.dir);
  return true;
}

}  // namespace railbench
