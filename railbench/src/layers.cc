#include "layers.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "engine/stream_def.h"
#include "msg/broker.h"
#include "msg/remote/bus_server.h"
#include "msg/remote/remote_bus.h"
#include "plan/task_plan.h"
#include "query/query.h"
#include "reservoir/reservoir.h"
#include "storage/db.h"
#include "window/window_operator.h"

namespace railbench {
namespace {

using railgun::Status;
using railgun::reservoir::Event;
using railgun::reservoir::FieldType;
using railgun::reservoir::Reservoir;
using railgun::reservoir::ReservoirOptions;
using railgun::reservoir::SchemaField;

// Wire replay length: enough PollBatch calls for a steady median.
constexpr uint64_t kWireEvents = 50000;
constexpr size_t kWireBatch = 256;

const std::vector<SchemaField>& Fields() {
  static const std::vector<SchemaField> fields = {
      {"cardId", FieldType::kString},
      {"merchantId", FieldType::kString},
      {"amount", FieldType::kDouble}};
  return fields;
}

ReservoirOptions ReservoirOptionsFor(const WorkloadSpec& spec) {
  ReservoirOptions options;
  options.schema_fields = Fields();
  if (spec.chunk_target_bytes != 0) {
    options.chunk_target_bytes = spec.chunk_target_bytes;
  }
  if (spec.cache_capacity != 0) options.cache_capacity = spec.cache_capacity;
  return options;
}

bool Fail(const char* layer, const Status& status) {
  std::fprintf(stderr, "railbench: layer replay (%s): %s\n", layer,
               status.ToString().c_str());
  return false;
}

// Times one call in nanoseconds (most of these calls take about a
// microsecond, below the resolution of a microsecond clock).
template <typename Fn>
int64_t Timed(Fn&& fn, Status* status) {
  const auto t0 = std::chrono::steady_clock::now();
  *status = fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double MedianMicros(std::vector<int64_t>* nanos) {
  return Percentile(nanos, 50) / 1000.0;
}

bool ReplayReservoirAppend(const WorkloadSpec& spec,
                           const std::vector<Event>& events,
                           const std::string& dir, Report* report) {
  ResetDir(dir);
  Reservoir reservoir(ReservoirOptionsFor(spec), dir);
  Status s = reservoir.Open();
  if (!s.ok()) return Fail("reservoir", s);
  std::vector<int64_t> append_us;
  append_us.reserve(events.size());
  for (const Event& e : events) {
    append_us.push_back(Timed([&] { return reservoir.Append(e); }, &s));
    if (!s.ok()) return Fail("reservoir", s);
  }
  report->Add("reservoir.append_us", MedianMicros(&append_us), "us");
  return true;
}

// The window and plan replays time (and count expiries and chunk
// loads for) only the events from index `live` on: the seeded history
// before it only fills the windows.
bool ReplayWindows(const WorkloadSpec& spec, const std::vector<Event>& events,
                   size_t live, const std::string& dir, Report* report) {
  ResetDir(dir);
  Reservoir reservoir(ReservoirOptionsFor(spec), dir);
  Status s = reservoir.Open();
  if (!s.ok()) return Fail("window", s);
  railgun::window::WindowManager windows(&reservoir);
  for (const std::string& select : spec.selects) {
    auto query = railgun::query::ParseQuery(select);
    if (!query.ok()) return Fail("window", query.status());
    windows.GetOrCreate(query.value().window);
  }
  railgun::window::EdgeDeltas deltas;
  std::vector<int64_t> advance_us;
  advance_us.reserve(events.size());
  uint64_t expired = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    s = reservoir.Append(e);
    if (!s.ok()) return Fail("window", s);
    const int64_t took = Timed(
        [&] {
          windows.Advance(e.timestamp, &deltas);
          return Status::OK();
        },
        &s);
    if (i < live) continue;
    advance_us.push_back(took);
    for (const auto& [offset, list] : deltas.expired_by_offset) {
      expired += list.size();
    }
  }
  report->Add("window.advance_us", MedianMicros(&advance_us), "us");
  report->Add("window.expired_per_event",
              static_cast<double>(expired) / advance_us.size(), "events");
  return true;
}

bool ReplayPlan(const WorkloadSpec& spec, const std::vector<Event>& events,
                size_t live, const std::string& dir, Report* report) {
  ResetDir(dir);
  Reservoir reservoir(ReservoirOptionsFor(spec), dir + "/reservoir");
  Status s = reservoir.Open();
  if (!s.ok()) return Fail("plan", s);
  std::unique_ptr<railgun::storage::DB> db;
  s = railgun::storage::DB::Open(railgun::storage::DBOptions(), dir + "/state",
                                 &db);
  if (!s.ok()) return Fail("plan", s);
  railgun::plan::TaskPlan plan(&reservoir, db.get());
  s = plan.Init();
  if (!s.ok()) return Fail("plan", s);
  for (const std::string& select : spec.selects) {
    auto query = railgun::query::ParseQuery(select);
    if (!query.ok()) return Fail("plan", query.status());
    s = plan.AddQuery(query.value());
    if (!s.ok()) return Fail("plan", s);
  }
  std::vector<railgun::plan::MetricResult> results;
  std::vector<int64_t> process_us;
  process_us.reserve(events.size());
  railgun::reservoir::ReservoirStats stats_before;
  railgun::reservoir::ChunkCache::Stats cache_before;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i == live) {
      stats_before = reservoir.stats();
      cache_before = reservoir.cache_stats();
    }
    s = reservoir.Append(e);
    if (!s.ok()) return Fail("plan", s);
    results.clear();
    const int64_t took =
        Timed([&] { return plan.ProcessEvent(e, &results); }, &s);
    if (!s.ok()) return Fail("plan", s);
    if (i >= live) process_us.push_back(took);
  }
  const auto stats = reservoir.stats();
  auto cache = reservoir.cache_stats();
  cache.hits -= cache_before.hits;
  cache.misses -= cache_before.misses;
  std::printf("# replay: %zu events in %llu closed chunks, cache of %zu chunks\n",
              events.size(), static_cast<unsigned long long>(stats.chunks_closed),
              ReservoirOptionsFor(spec).cache_capacity);
  report->Add("plan.process_event_us", MedianMicros(&process_us), "us");
  report->Add("reservoir.sync_loads_per_kevent",
              1000.0 * (stats.sync_chunk_loads - stats_before.sync_chunk_loads) /
                  process_us.size(),
              "1/kevent");
  const uint64_t lookups = cache.hits + cache.misses;
  report->Add("chunk_cache.hit_ratio",
              lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0,
              "ratio");
  return true;
}

// Get-then-Put per event on the plan's state-key pattern
// ("m<metric>|<group>"), one key per card.
bool ReplayStateStore(const std::vector<Event>& events, const std::string& dir,
                      Report* report) {
  ResetDir(dir);
  std::unique_ptr<railgun::storage::DB> db;
  Status s = railgun::storage::DB::Open(railgun::storage::DBOptions(), dir, &db);
  if (!s.ok()) return Fail("state", s);
  std::vector<int64_t> get_us;
  std::vector<int64_t> put_us;
  get_us.reserve(events.size());
  put_us.reserve(events.size());
  std::string key;
  std::string value;
  for (const Event& e : events) {
    key = "m1|" + e.values[0].as_string();
    get_us.push_back(Timed(
        [&] {
          Status g = db->Get(railgun::storage::kDefaultColumnFamily, key, &value);
          return g.IsNotFound() ? Status::OK() : g;
        },
        &s));
    if (!s.ok()) return Fail("state", s);
    value.assign(16, static_cast<char>(e.id));
    put_us.push_back(Timed(
        [&] {
          return db->Put(railgun::storage::kDefaultColumnFamily, key, value);
        },
        &s));
    if (!s.ok()) return Fail("state", s);
  }
  report->Add("state.get_us", MedianMicros(&get_us), "us");
  report->Add("state.put_us", MedianMicros(&put_us), "us");
  return true;
}

// Event envelopes through RemoteBus::ProduceBatch and PollBatch against
// a loopback BusServer in front of an in-process bus.
bool ReplayWire(const std::vector<Event>& events, Report* report) {
  railgun::msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  railgun::msg::InProcessBus bus(bus_options);
  Status s = bus.CreateTopic("replay", 4);
  if (!s.ok()) return Fail("wire", s);
  railgun::msg::remote::BusServer server(
      railgun::msg::remote::BusServerOptions(), &bus);
  s = server.Start();
  if (!s.ok()) return Fail("wire", s);
  railgun::msg::remote::RemoteBusOptions remote_options;
  remote_options.address = server.address();
  railgun::msg::remote::RemoteBus remote(remote_options);
  s = remote.Connect();
  if (s.ok()) {
    s = remote.Subscribe("replay-consumer", "replay-group", {"replay"}, "",
                         nullptr, {});
  }
  if (!s.ok()) return Fail("wire", s);

  const railgun::reservoir::Schema schema(1, Fields());
  const size_t n = std::min<size_t>(events.size(), kWireEvents);
  std::vector<int64_t> produce_us;
  std::vector<int64_t> poll_us;
  railgun::msg::MessageBatch batch;
  for (size_t begin = 0; begin < n; begin += kWireBatch) {
    const size_t end = std::min(n, begin + kWireBatch);
    std::vector<railgun::msg::ProduceRecord> records;
    for (size_t i = begin; i < end; ++i) {
      railgun::engine::EventEnvelope envelope;
      envelope.request_id = i + 1;
      envelope.reply_topic = "replay-replies";
      envelope.event = events[i];
      railgun::msg::ProduceRecord record;
      record.key = events[i].values[0].as_string();
      railgun::engine::EncodeEventEnvelope(envelope, schema, &record.payload);
      records.push_back(std::move(record));
    }
    produce_us.push_back(Timed(
        [&] { return remote.ProduceBatch("replay", std::move(records)); }, &s));
    if (!s.ok()) return Fail("wire", s);
    size_t received = 0;
    const Micros give_up = NowMicros() + 10 * 1000000;
    while (received < end - begin) {
      poll_us.push_back(Timed(
          [&] {
            return remote.PollBatch("replay-consumer", kWireBatch, &batch,
                                    100000);
          },
          &s));
      if (!s.ok()) return Fail("wire", s);
      received += batch.size();
      if (NowMicros() > give_up) {
        return Fail("wire", Status::Unavailable("produced records never polled"));
      }
    }
  }
  report->Add("wire.produce_us", MedianMicros(&produce_us), "us");
  report->Add("wire.poll_us", MedianMicros(&poll_us), "us");
  report->Add("wire.pool_misses",
              static_cast<double>(remote.pool_misses() + server.pool_misses()),
              "count");
  (void)remote.Unsubscribe("replay-consumer");
  server.Stop();
  return true;
}

}  // namespace

bool RunLayerReplay(const WorkloadSpec& spec, uint64_t seed, double rate,
                    uint64_t events, const std::string& dir, Report* report) {
  EventSource source(spec, seed, rate);
  const size_t live = source.history_events();
  std::vector<Event> replay(events);
  for (uint64_t i = 0; i < events; ++i) {
    const Payment p = source.Next();
    replay[i].timestamp = p.ts;
    replay[i].id = p.id;
    replay[i].offset = i;
    replay[i].values = {CardName(p.card), MerchantName(p.merchant),
                        static_cast<double>(p.cents)};
  }
  const bool ok = ReplayReservoirAppend(spec, replay, dir + "/append", report) &&
                  ReplayWindows(spec, replay, live, dir + "/windows", report) &&
                  ReplayPlan(spec, replay, live, dir + "/plan", report) &&
                  ReplayStateStore(replay, dir + "/state", report) &&
                  ReplayWire(replay, report);
  RemoveDir(dir);
  return ok;
}

}  // namespace railbench
