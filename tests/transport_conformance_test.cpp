// Backend-parameterized transport conformance suite.
//
// Every behavioural guarantee the control plane relies on — delivery, unique
// ids, loss accounting, the ReliableEndpoint exactly-once contract, restart
// semantics, per-connection ordering, zero-copy payloads, thread safety — is
// asserted here once and instantiated against BOTH RawTransport backends (sim
// bus and Unix-domain sockets). A behaviour either holds on both or it is not
// part of the contract.
//
// Socket cases GTEST_SKIP where the sandbox forbids AF_UNIX sockets.
// Sim-only behaviours (latency bounds, jitter, fault filters) stay in
// transport_test.cpp; KV-store and filesystem coverage stays there too.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "transport_backends.h"

namespace elan::transport {
namespace {

using testing::BackendContext;
using testing::ConformanceConfig;

template <typename Backend>
class TransportConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Backend::available()) {
      GTEST_SKIP() << "sockets unavailable in this sandbox";
    }
  }

  std::unique_ptr<BackendContext> make(const ConformanceConfig& config = {}) {
    return Backend::make(config);
  }

  static Message make_message(const std::string& from, const std::string& to,
                              const std::string& type) {
    Message m;
    m.from = from;
    m.to = to;
    m.type = type;
    return m;
  }
};

TYPED_TEST_SUITE(TransportConformance, testing::Backends, testing::BackendNames);

// ---------------------------------------------------------------------------
// Raw transport contract.

TYPED_TEST(TransportConformance, DeliversMessages) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  std::string got_type;
  ctx->transport().attach("b", [&](const Message& m) {
    got_type = m.type;
    received.fetch_add(1);
  });
  ctx->transport().send(this->make_message("a", "b", "ping"));
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }));
  EXPECT_EQ(got_type, "ping");
  EXPECT_EQ(ctx->transport().stats().delivered, 1u);
}

TYPED_TEST(TransportConformance, AssignsUniqueIds) {
  auto ctx = this->make();
  ctx->transport().attach("b", [](const Message&) {});
  const auto id1 = ctx->transport().send(this->make_message("a", "b", "ping"));
  const auto id2 = ctx->transport().send(this->make_message("a", "b", "ping"));
  EXPECT_NE(id1, id2);
  EXPECT_NE(id1, 0u);
}

TYPED_TEST(TransportConformance, MessageToUnknownEndpointIsLost) {
  auto ctx = this->make();
  ctx->transport().send(this->make_message("a", "nobody", "ping"));
  // The sim bus classifies at admission, the socket backend when the connect
  // fails — both must end with the frame accounted as to_unknown.
  ASSERT_TRUE(ctx->wait_until(
      [&] { return ctx->transport().stats().to_unknown == 1; }));
  EXPECT_EQ(ctx->transport().stats().delivered, 0u);
}

TYPED_TEST(TransportConformance, ForcedDropsApply) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ctx->transport().attach("b", [&](const Message&) { received.fetch_add(1); });
  ctx->transport().inject_drops("a", 2);
  for (int i = 0; i < 3; ++i) {
    ctx->transport().send(this->make_message("a", "b", "ping"));
  }
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }));
  EXPECT_EQ(ctx->transport().stats().dropped, 2u);
}

TYPED_TEST(TransportConformance, PerConnectionOrdering) {
  auto ctx = this->make();
  std::vector<int> order;
  Mutex mu{"conformance_order"};
  ctx->transport().attach("b", [&](const Message& m) {
    MutexLock lock(mu);
    order.push_back(static_cast<int>(m.payload[0]));
  });
  for (int i = 0; i < 20; ++i) {
    Message m = this->make_message("a", "b", "seq");
    m.payload = {static_cast<std::uint8_t>(i)};
    ctx->transport().send(std::move(m));
  }
  ASSERT_TRUE(ctx->wait_until([&] {
    MutexLock lock(mu);
    return order.size() == 20u;
  }));
  MutexLock lock(mu);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TYPED_TEST(TransportConformance, TimersFireAndCancel) {
  auto ctx = this->make();
  std::atomic<int> fired{0};
  ctx->transport().schedule_after(milliseconds(5.0), [&] { fired.fetch_add(1); });
  const auto cancelled =
      ctx->transport().schedule_after(milliseconds(5.0), [&] { fired.fetch_add(100); });
  ctx->transport().cancel_timer(cancelled);
  ASSERT_TRUE(ctx->wait_until([&] { return fired.load() >= 1; }));
  ctx->advance(milliseconds(20.0));
  ctx->settle();
  EXPECT_EQ(fired.load(), 1);
}

TYPED_TEST(TransportConformance, StatsReconcileAtQuiescence) {
  ConformanceConfig config;
  config.drop_probability = 0.2;
  config.seed = 11;
  auto ctx = this->make(config);
  std::atomic<int> received{0};
  ctx->transport().attach("sink", [&](const Message&) { received.fetch_add(1); });
  for (int i = 0; i < 50; ++i) {
    ctx->transport().send(this->make_message("src", "sink", "noise"));
  }
  for (int i = 0; i < 10; ++i) {
    ctx->transport().send(this->make_message("src", "nobody", "noise"));
  }
  ASSERT_TRUE(ctx->wait_until([&] {
    const BusStats s = ctx->transport().stats();
    return s.sent == 60u && s.delivered + s.dropped + s.to_unknown == s.sent;
  }));
  const BusStats s = ctx->transport().stats();
  EXPECT_EQ(static_cast<std::uint64_t>(received.load()), s.delivered);
  EXPECT_GT(s.dropped, 0u);  // p=0.2 over 60 sends: loss is certain enough
}

// ---------------------------------------------------------------------------
// ReliableEndpoint contract (identical layer, both substrates).

TYPED_TEST(TransportConformance, ReliableDeliversExactlyOnceWithoutFaults) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  a.send("b", "hello");
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }));
  ctx->settle();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(a.retries(), 0u);
}

TYPED_TEST(TransportConformance, ReliableResendsAfterDrop) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  ctx->transport().inject_drops("a", 1);  // first transmission lost
  a.send("b", "hello");
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }));
  EXPECT_GE(a.retries(), 1u);
}

TYPED_TEST(TransportConformance, ReliableLostAckCausesResendButNoDuplicate) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  ctx->transport().inject_drops("b", 1);  // b's first ack lost
  a.send("b", "hello");
  // Wait for the retry to be acked, then check nothing was double-delivered.
  ASSERT_TRUE(ctx->wait_until([&] { return a.retries() >= 1 && received.load() >= 1; }));
  ctx->settle();
  EXPECT_EQ(received.load(), 1);
}

TYPED_TEST(TransportConformance, ReliableSurvivesHighLossRate) {
  ConformanceConfig config;
  config.drop_probability = 0.3;
  config.seed = 99;
  auto ctx = this->make(config);
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  for (int i = 0; i < 50; ++i) a.send("b", "msg" + std::to_string(i));
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 50; }, 30.0));
}

TYPED_TEST(TransportConformance, ReliableResendsReachRestartedPeer) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  b.shutdown();  // peer dies
  a.send("b", "hello");
  ctx->advance(0.3);  // sender is retrying into the void meanwhile
  b.restart();
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }, 30.0));
  EXPECT_GE(a.retries(), 1u);
}

TYPED_TEST(TransportConformance, ReliableGivesUpAfterMaxRetries) {
  auto ctx = this->make();
  TransportOptions options;
  options.max_retries = 3;
  options.ack_timeout = milliseconds(10);
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {}, options);
  a.send("void", "hello");
  ASSERT_TRUE(ctx->wait_until([&] { return a.gave_up() == 1; }));
}

TYPED_TEST(TransportConformance, ReliableShutdownStopsRetries) {
  auto ctx = this->make();
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {});
  a.send("void", "hello");
  a.shutdown();
  ctx->advance(0.3);
  ctx->settle();
  EXPECT_EQ(a.gave_up(), 0u);
  EXPECT_EQ(a.retries(), 0u);
}

// ---------------------------------------------------------------------------
// Receiver-side dedup. Raw sends with chosen ids stand in for peers whose
// transports number their messages independently (every socket-backend
// process allocates its own ids). The endpoint acks every copy, so counting
// acks at the raw sender tells when each copy has been seen.

TYPED_TEST(TransportConformance, ReliableDedupIsPerSender) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  std::atomic<int> acks{0};
  for (const char* sender : {"x", "y"}) {
    ctx->transport().attach(sender, [&](const Message&) { acks.fetch_add(1); });
  }
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  for (const char* sender : {"x", "y", "x", "y"}) {
    Message m = this->make_message(sender, "b", "hello");
    m.id = 77;  // the same id from both senders
    ctx->transport().send(std::move(m));
  }
  ASSERT_TRUE(ctx->wait_until([&] { return acks.load() == 4; }));
  ctx->settle();
  EXPECT_EQ(received.load(), 2);
}

TYPED_TEST(TransportConformance, ReliableDedupSurvivesRestart) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  std::atomic<int> acks{0};
  ctx->transport().attach("x", [&](const Message&) { acks.fetch_add(1); });
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  Message m = this->make_message("x", "b", "hello");
  m.id = 5;
  ctx->transport().send(m);
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1 && acks.load() == 1; }));
  b.shutdown();
  b.restart();
  // A re-send whose first ack was lost lands on the restarted endpoint.
  ctx->transport().send(m);
  ASSERT_TRUE(ctx->wait_until([&] { return acks.load() == 2; }));
  ctx->settle();
  EXPECT_EQ(received.load(), 1);
}

TYPED_TEST(TransportConformance, ReliableDedupAcceptsEveryIdValue) {
  // All-ones marks an empty slot inside the dedup set; as a message id it
  // must still be delivered once and then suppressed.
  auto ctx = this->make();
  std::atomic<int> received{0};
  std::atomic<int> acks{0};
  ctx->transport().attach("x", [&](const Message&) { acks.fetch_add(1); });
  ReliableEndpoint b(ctx->transport(), "b",
                     [&](const Message&) { received.fetch_add(1); });
  for (const MessageId id : {~MessageId{0}, ~MessageId{0}, MessageId{1}, ~MessageId{0}}) {
    Message m = this->make_message("x", "b", "hello");
    m.id = id;
    ctx->transport().send(std::move(m));
  }
  ASSERT_TRUE(ctx->wait_until([&] { return acks.load() == 4; }));
  ctx->settle();
  EXPECT_EQ(received.load(), 2);
}

// ---------------------------------------------------------------------------
// Zero-copy payload contract.

TYPED_TEST(TransportConformance, ZeroCopyPayloadDelivery) {
  auto ctx = this->make();
  // A generous ack timeout keeps spurious retransmissions (and their
  // receive-side materialisations) out of the allocation count.
  TransportOptions options = ctx->transport().default_options();
  options.ack_timeout = 2.0;

  const std::uint8_t* delivered_data = nullptr;
  std::vector<std::uint8_t> delivered_copy;
  std::atomic<int> received{0};
  ReliableEndpoint a(ctx->transport(), "a", [](const Message&) {}, options);
  ReliableEndpoint b(
      ctx->transport(), "b",
      [&](const Message& m) {
        delivered_data = m.payload.data();
        delivered_copy.assign(m.payload.begin(), m.payload.end());
        received.fetch_add(1);
      },
      options);

  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<std::uint8_t> expected = bytes;

  const auto before = Payload::buffer_allocations();
  Payload payload(std::move(bytes));
  const std::uint8_t* original = payload.data();
  a.send("b", "blob", std::move(payload));
  ASSERT_TRUE(ctx->wait_until([&] { return received.load() == 1; }));
  ctx->settle();

  EXPECT_EQ(delivered_copy, expected);
  if (TypeParam::kSharedMemoryDelivery) {
    // In-process: the handler sees the very buffer the sender wrapped, and
    // the whole exchange (incl. the empty-payload ack) allocates once.
    EXPECT_EQ(delivered_data, original);
    EXPECT_EQ(Payload::buffer_allocations() - before, 1u);
  } else {
    // Cross-process semantics: one allocation wrapping the sender's bytes
    // (written to the wire by reference, never copied) and exactly one
    // receive-side materialisation. The ack frame allocates nothing.
    EXPECT_EQ(Payload::buffer_allocations() - before, 2u);
  }
}

// ---------------------------------------------------------------------------
// Thread-safety stress (runs under TSan via the tsan ctest label).

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 200;

template <typename Fn>
void hammer_threads(Fn work) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back([&, t] { work(t); });
  for (auto& t : threads) t.join();
}

TYPED_TEST(TransportConformance, StressConcurrentSendsAllDelivered) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ctx->transport().attach("sink", [&](const Message&) { received.fetch_add(1); });

  std::thread driver([&] {
    ctx->wait_until([&] { return received.load() == kThreads * kOpsPerThread; },
                    30.0);
  });
  hammer_threads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      ctx->transport().send(
          this->make_message("src/" + std::to_string(t), "sink", "ping"));
    }
  });
  driver.join();

  EXPECT_EQ(received.load(), kThreads * kOpsPerThread);
  const BusStats stats = ctx->transport().stats();
  EXPECT_EQ(stats.sent, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

TYPED_TEST(TransportConformance, StressAllocateIdUniqueAcrossThreads) {
  auto ctx = this->make();
  std::vector<std::vector<MessageId>> per_thread(kThreads);
  hammer_threads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      per_thread[static_cast<std::size_t>(t)].push_back(
          ctx->transport().allocate_id());
    }
  });
  std::set<MessageId> unique;
  for (const auto& ids : per_thread) unique.insert(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kOpsPerThread));
}

TYPED_TEST(TransportConformance, StressConcurrentAttachDetachWithTraffic) {
  auto ctx = this->make();
  ctx->transport().attach("sink", [](const Message&) {});

  std::atomic<bool> done{false};
  std::thread driver([&] {
    ctx->wait_until([&] { return done.load(); }, 60.0);
  });
  hammer_threads([&](int t) {
    const std::string name = "flapper/" + std::to_string(t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      ctx->transport().attach(name, [](const Message&) {});
      ctx->transport().send(this->make_message(name, "sink", "noise"));
      ctx->transport().detach(name);
    }
  });
  done.store(true);
  driver.join();

  // Every frame must be accounted for exactly once at quiescence.
  ASSERT_TRUE(ctx->wait_until(
      [&] {
        const BusStats s = ctx->transport().stats();
        return s.sent == static_cast<std::uint64_t>(kThreads * kOpsPerThread) &&
               s.delivered + s.dropped + s.to_unknown == s.sent;
      },
      30.0));
}

TYPED_TEST(TransportConformance, StressReliableEndpointsConcurrentSends) {
  auto ctx = this->make();
  std::atomic<int> received{0};
  ReliableEndpoint server(ctx->transport(), "server",
                          [&](const Message&) { received.fetch_add(1); });

  constexpr int kReliableOps = 50;
  std::vector<std::unique_ptr<ReliableEndpoint>> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(std::make_unique<ReliableEndpoint>(
        ctx->transport(), "client/" + std::to_string(t), [](const Message&) {}));
  }

  std::thread driver([&] {
    ctx->wait_until([&] { return received.load() == kThreads * kReliableOps; },
                    60.0);
  });
  hammer_threads([&](int t) {
    for (int i = 0; i < kReliableOps; ++i) {
      clients[static_cast<std::size_t>(t)]->send("server", "work");
    }
  });
  driver.join();

  EXPECT_EQ(received.load(), kThreads * kReliableOps);
}

}  // namespace
}  // namespace elan::transport
