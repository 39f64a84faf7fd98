#include "perfbench/src/replay.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "perfbench/src/measure.h"
#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/obs/request_telemetry.h"

namespace perfbench {

namespace {

using spotcache::loadgen::Op;
using spotcache::loadgen::OpKind;
namespace net = spotcache::net;

constexpr size_t kMaxOps = 100'000;
constexpr size_t kBatch = 4;  // requests per simulated recv batch
constexpr int kRounds = 5;    // each pass runs this often; median reported

struct WireOp {
  bool is_get = false;
  std::string key;
  uint32_t value_len = 0;  // sets: payload; gets: length of the hit's value
  bool hit = false;        // gets: filled by the capture pass
};

// Runs `body` once per round and returns the median of elapsed ns / ops.
template <typename Fn>
double TimedPass(SpanRecorder* spans, uint64_t parent, const char* name,
                 int rounds, uint64_t ops, Fn&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < rounds; ++r) {
    const int64_t t0 = NowNs();
    body();
    const int64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Add(name, t0, t1, parent);
    }
    per_op.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(std::max<uint64_t>(ops, 1)));
  }
  return Median(per_op);
}

// Feeds every batch through `parser`, calling `on_request` per request and
// `on_batch_end` after each batch, mirroring NetServer::Drain's loop
// (including the BeginRequest that precedes the final kNeedMore).
template <typename OnBegin, typename OnRequest, typename OnBatch>
void DriveBatches(const std::vector<std::string>& batches,
                  net::RequestParser& parser, OnBegin&& on_begin_request,
                  OnRequest&& on_request, OnBatch&& on_batch_end) {
  for (const std::string& wire : batches) {
    parser.Feed(wire);
    for (;;) {
      on_begin_request();
      if (parser.Next() != net::ParseStatus::kRequest) {
        break;
      }
      on_request(parser.request());
    }
    on_batch_end();
  }
}

}  // namespace

ReplayCosts RunReplay(const spotcache::loadgen::OpStreamConfig& stream,
                      SpanRecorder* spans, uint64_t parent) {
  ReplayCosts costs;
  const std::vector<Op> ops =
      spotcache::loadgen::GenerateOps(stream, kMaxOps);
  costs.ops = ops.size();
  if (ops.empty()) {
    return costs;
  }
  const uint32_t max_value = std::max(stream.mix.value_bytes,
                                      stream.mix.value_bytes_max);
  const std::string value_buf(std::max<uint32_t>(max_value, 1), 'v');
  const int64_t now = static_cast<int64_t>(std::time(nullptr));

  // Wire bytes, exactly as the load generator writes them.
  std::vector<WireOp> wire_ops;
  wire_ops.reserve(ops.size());
  std::vector<std::string> batches;
  std::string cur;
  for (size_t i = 0; i < ops.size(); ++i) {
    WireOp w;
    w.is_get = ops[i].kind == OpKind::kGet;
    w.key = kKeyPrefix + std::to_string(ops[i].key);
    if (w.is_get) {
      cur += "get " + w.key + "\r\n";
    } else {
      w.value_len = ops[i].value_len;
      cur += "set " + w.key + " 0 0 " + std::to_string(w.value_len) + "\r\n";
      cur.append(value_buf.data(), w.value_len);
      cur += "\r\n";
    }
    wire_ops.push_back(std::move(w));
    if ((i + 1) % kBatch == 0 || i + 1 == ops.size()) {
      batches.push_back(std::move(cur));
      cur.clear();
    }
  }
  uint64_t gets = 0;
  for (const WireOp& w : wire_ops) {
    gets += w.is_get ? 1 : 0;
  }
  const uint64_t sets = ops.size() - gets;

  // A core prefilled the way the serving setup prefills the server.
  net::ServerCoreConfig core_cfg;
  core_cfg.capacity_bytes = kStoreBytes;
  spotcache::Obs core_obs;
  net::ServerCore core(core_cfg, nullptr, &core_obs);
  const std::string_view prefill_value(value_buf.data(),
                                       stream.mix.value_bytes);
  for (uint64_t k = 0; k < stream.keys.num_keys; ++k) {
    core.store().Set(kKeyPrefix + std::to_string(k), 0, 0,
                     prefill_value, now);
  }

  net::ResponseAssembler out;
  uint64_t sink = 0;

  // Capture pass (untimed): which gets hit and how long their values are,
  // so the assembler replay makes the calls Handle makes.
  {
    net::RequestParser parser;
    size_t idx = 0;
    DriveBatches(
        batches, parser, [] {},
        [&](const net::TextRequest& req) {
          const size_t before = out.total_bytes();
          core.Handle(req, now, &out);
          WireOp& w = wire_ops[idx++];
          if (w.is_get) {
            w.hit = out.total_bytes() - before > 5;  // more than "END\r\n"
            if (w.hit) {
              const spotcache::net::Item* item = core.store().Get(w.key, now);
              w.value_len = item != nullptr
                                ? static_cast<uint32_t>(item->data->size())
                                : 0;
            }
          }
        },
        [&] { out.Clear(); });
  }

  costs.parse_ns = TimedPass(spans, parent, "replay.parse", kRounds,
                             ops.size(), [&] {
                               net::RequestParser parser;
                               DriveBatches(
                                   batches, parser, [] {},
                                   [&](const net::TextRequest& req) {
                                     sink += req.keys.size();
                                   },
                                   [] {});
                             });

  // Handle with and without RequestTelemetry, alternating so both see the
  // same machine state; telemetry's cost is the median paired difference.
  spotcache::Obs telemetry_obs;
  spotcache::RequestTelemetry telemetry(spotcache::RequestTelemetryConfig{},
                                        &telemetry_obs);
  std::vector<double> plain_ns, telemetry_delta_ns;
  for (int r = 0; r < kRounds; ++r) {
    const double plain = TimedPass(
        spans, parent, "replay.parse+handle", 1, ops.size(), [&] {
          net::RequestParser parser;
          DriveBatches(
              batches, parser, [] {},
              [&](const net::TextRequest& req) { core.Handle(req, now, &out); },
              [&] { out.Clear(); });
        });
    const double with_telemetry = TimedPass(
        spans, parent, "replay.parse+handle+telemetry", 1, ops.size(), [&] {
          core.set_telemetry(&telemetry);
          net::RequestParser parser;
          telemetry.BeginBatch(1);
          DriveBatches(
              batches, parser, [&] { telemetry.BeginRequest(); },
              [&](const net::TextRequest& req) { core.Handle(req, now, &out); },
              [&] {
                telemetry.OnAbandoned();
                out.Clear();
                telemetry.EndBatch(0);
                telemetry.BeginBatch(1);
              });
          telemetry.EndBatch(0);
          core.set_telemetry(nullptr);
        });
    plain_ns.push_back(plain);
    telemetry_delta_ns.push_back(with_telemetry - plain);
  }
  const double parse_handle_ns = Median(plain_ns);

  // The assembler calls Handle makes for these replies: a VALUE header, the
  // pinned value and its CRLF per hit, END per get, STORED per set.
  std::map<uint32_t, std::shared_ptr<const std::string>> pins;
  for (const WireOp& w : wire_ops) {
    if (w.is_get && w.hit && pins.count(w.value_len) == 0) {
      pins[w.value_len] = std::make_shared<const std::string>(w.value_len, 'v');
    }
  }
  std::vector<const std::shared_ptr<const std::string>*> op_pins;
  op_pins.reserve(wire_ops.size());
  for (const WireOp& w : wire_ops) {
    op_pins.push_back(w.is_get && w.hit ? &pins[w.value_len] : nullptr);
  }
  costs.assemble_ns = TimedPass(
      spans, parent, "replay.assemble", kRounds, ops.size(), [&] {
        for (size_t i = 0; i < wire_ops.size(); ++i) {
          const WireOp& w = wire_ops[i];
          if (w.is_get) {
            if (op_pins[i] != nullptr) {
              const auto& pin = *op_pins[i];
              out.Appendf("VALUE %.*s %u %zu\r\n",
                          static_cast<int>(w.key.size()), w.key.data(), 0u,
                          pin->size());
              out.AppendPinned(*pin, pin);
              out.Append("\r\n");
            }
            out.Append("END\r\n");
          } else {
            out.Append("STORED\r\n");
          }
          if ((i + 1) % kBatch == 0 || i + 1 == wire_ops.size()) {
            sink += out.iovecs().size();
            out.Clear();
          }
        }
      });

  const double handle_incl_ns = std::max(parse_handle_ns - costs.parse_ns, 0.0);
  costs.handle_ns = std::max(handle_incl_ns - costs.assemble_ns, 0.0);
  costs.telemetry_ns = std::max(Median(telemetry_delta_ns), 0.0);

  // Direct store replay on a fresh, identically prefilled store.
  net::ItemStore store(kStoreBytes);
  for (uint64_t k = 0; k < stream.keys.num_keys; ++k) {
    store.Set(kKeyPrefix + std::to_string(k), 0, 0, prefill_value, now);
  }
  costs.store_get_ns = TimedPass(
      spans, parent, "replay.store_get", kRounds, gets, [&] {
        for (const WireOp& w : wire_ops) {
          if (w.is_get) {
            sink += store.Get(w.key, now) != nullptr ? 1 : 0;
          }
        }
      });
  if (sets > 0) {
    costs.store_set_ns = TimedPass(
        spans, parent, "replay.store_set", kRounds, sets, [&] {
          for (const WireOp& w : wire_ops) {
            if (!w.is_get) {
              store.Set(w.key, 0, 0,
                        std::string_view(value_buf.data(), w.value_len), now);
            }
          }
        });
  }
  if (sink == 0xdeadbeef) {
    std::fprintf(stderr, "replay sink %llu\n",
                 static_cast<unsigned long long>(sink));
  }
  return costs;
}

}  // namespace perfbench
