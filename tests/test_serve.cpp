// Multi-tenant serving loop tests (DESIGN.md §15).
//
// The contracts under test, in rough order of load-bearing-ness:
//   * Determinism: a fleet's outcomes, counters and rolling summaries are a
//     pure function of (config, specs) — identical at 1 vs 4 threads, and a
//     server killed mid-serve and restarted from its checkpoints finishes
//     byte-identical to the uninterrupted run (the audit's --stage serve
//     repeats this over seeded kill points; here we pin one).
//   * Fault isolation: drill faults delay a session's scheduling but never
//     change what it feeds its simulator — per-session SimResults with
//     drills armed equal the drill-free run's for every surviving session.
//   * Explicit backpressure: admission and ingest beyond their budgets
//     defer and count; shed sessions account their queued remainder; the
//     record-conservation identities hold at drain.
//   * Graceful drain: pending sessions reject, queues flush to zero, live
//     sessions finalize with partial results.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/vfs.hpp"
#include "serve/serve.hpp"

namespace planaria {
namespace {

namespace fs = std::filesystem;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "planaria-test-serve";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string subdir(const char* name) const {
    const fs::path p = dir_ / name;
    fs::create_directories(p);
    return p.string();
  }

  fs::path dir_;
};

serve::ServeConfig small_config() {
  serve::ServeConfig config;
  config.records_per_session = 3000;
  config.max_live_sessions = 4;
  config.queue_capacity = 512;
  config.ingest_per_tick = 256;
  config.quantum_records = 128;
  return config;
}

std::vector<serve::SessionSpec> fleet_of(std::uint64_t tenants) {
  std::vector<serve::SessionSpec> fleet;
  const char* apps[] = {"HoK", "Fort", "TikT"};
  const char* devices[] = {"phone", "tablet"};
  for (std::uint64_t i = 0; i < tenants; ++i) {
    serve::SessionSpec spec;
    spec.app = apps[i % 3];
    spec.kind = i % 2 == 0 ? sim::PrefetcherKind::kPlanaria
                           : sim::PrefetcherKind::kStride;
    spec.user_seed = 100 + i;
    spec.device = devices[i % 2];
    fleet.push_back(spec);
  }
  return fleet;
}

std::vector<serve::SessionSpec> small_fleet() { return fleet_of(6); }

/// The identities every finished serve must satisfy: terminal-state
/// partition and record conservation (nothing dropped silently).
void expect_reconciled(const serve::SessionServer& server) {
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.submitted, c.admitted + c.sessions_rejected);
  EXPECT_EQ(c.admitted, c.sessions_completed + c.sessions_drained +
                            c.sessions_shed_retry + c.sessions_shed_deadline);
  EXPECT_EQ(c.ingested_records, c.fed_records + c.shed_queued_records);
  EXPECT_EQ(server.queued_records(), 0u);
  // Checkpoint ledger: every attempt either landed or was charged as
  // degraded — a failed write is a shed, never a silent drop.
  EXPECT_EQ(c.ckpt_attempted, c.ckpt_written + c.ckpt_degraded);
}

TEST(ServeConfig, ValidateRejectsDegenerateKnobs) {
  serve::ServeConfig config = small_config();
  config.quantum_records = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.max_attempts = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.backoff_cap_ticks = 1;  // below base
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.session_fault_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config().validate());
}

TEST(ServeConfig, SessionStateNamesAndTerminality) {
  EXPECT_STREQ(serve::session_state_name(serve::SessionState::kLive), "live");
  EXPECT_STREQ(serve::session_state_name(serve::SessionState::kShedRetry),
               "shed-retry");
  EXPECT_FALSE(serve::session_state_terminal(serve::SessionState::kPending));
  EXPECT_FALSE(serve::session_state_terminal(serve::SessionState::kBackoff));
  EXPECT_TRUE(serve::session_state_terminal(serve::SessionState::kCompleted));
  EXPECT_TRUE(serve::session_state_terminal(serve::SessionState::kRejected));
}

TEST(Serve, FleetCompletesAndReconciles) {
  serve::SessionServer server(small_config(), 1);
  server.add_fleet(small_fleet());
  server.serve();
  ASSERT_TRUE(server.finished());
  const auto& outcomes = server.outcomes();
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.state, serve::SessionState::kCompleted) << "session " << o.id;
    EXPECT_EQ(o.records_fed, 3000u);
    EXPECT_GT(o.result.demand_reads, 0u);
  }
  expect_reconciled(server);
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_completed, 6u);
  EXPECT_EQ(c.ingested_records, 6u * 3000u);
  // max_live_sessions = 4 with 6 submitted: the last two must have deferred
  // at least once each.
  EXPECT_GE(c.admission_defers, 2u);
  // Rolling summaries cover every completed session, keyed both ways.
  EXPECT_EQ(server.summary().amat_by_app.groups.size(), 3u);
  EXPECT_EQ(server.summary().amat_by_device.groups.size(), 2u);
  std::uint64_t summarized = 0;
  for (const auto& [app, summary] : server.summary().amat_by_app.groups) {
    summarized += summary.count();
    EXPECT_GT(summary.quantile(0.5), 0.0) << app;
  }
  EXPECT_EQ(summarized, 6u);
}

TEST(Serve, ThreadCountIsInvisible) {
  serve::SessionServer serial(small_config(), 1);
  serial.add_fleet(small_fleet());
  serial.serve();
  serve::SessionServer pooled(small_config(), 4);
  pooled.add_fleet(small_fleet());
  pooled.serve();
  EXPECT_TRUE(serial.outcomes() == pooled.outcomes());
  EXPECT_TRUE(serial.counters() == pooled.counters());
  EXPECT_TRUE(serial.summary() == pooled.summary());
}

/// Admission and resume waves wider than any lane count under test: twelve
/// tenants against six live slots, drills armed, checkpointing optional.
serve::ServeConfig wide_wave_config(const std::string& checkpoint_dir = "") {
  serve::ServeConfig config = small_config();
  config.max_live_sessions = 6;
  config.session_fault_rate = 0.05;
  config.max_attempts = 50;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every_ticks = checkpoint_dir.empty() ? 0 : 4;
  return config;
}

TEST(Serve, WideAdmissionWavesAreThreadCountInvisible) {
  serve::SessionServer serial(wide_wave_config(), 1);
  serial.add_fleet(fleet_of(12));
  serial.serve();
  EXPECT_GT(serial.counters().drills_injected, 0u);
  EXPECT_GT(serial.counters().admission_defers, 0u);
  expect_reconciled(serial);
  for (const std::size_t threads : {2u, 4u}) {
    serve::SessionServer pooled(wide_wave_config(), threads);
    pooled.add_fleet(fleet_of(12));
    pooled.serve();
    EXPECT_TRUE(serial.outcomes() == pooled.outcomes()) << threads;
    EXPECT_TRUE(serial.counters() == pooled.counters()) << threads;
    EXPECT_TRUE(serial.summary() == pooled.summary()) << threads;
  }
}

TEST(Serve, NonRoundSessionLengthCompletes) {
  // 32768 records: the length at which the generator once came up short
  // and the server aborted on the run_sharded range contract.
  serve::ServeConfig config = small_config();
  config.records_per_session = 32768;
  config.queue_capacity = 8192;
  config.ingest_per_tick = 4096;
  config.quantum_records = 4096;
  serve::SessionServer server(config, 2);
  server.add_fleet(fleet_of(3));
  server.serve();
  for (const auto& o : server.outcomes()) {
    EXPECT_EQ(o.state, serve::SessionState::kCompleted) << "session " << o.id;
    EXPECT_EQ(o.records_fed, 32768u);
  }
  expect_reconciled(server);
}

TEST(Serve, DrillFaultsDelaySchedulingButNotResults) {
  serve::SessionServer calm(small_config(), 1);
  calm.add_fleet(small_fleet());
  calm.serve();

  serve::ServeConfig faulty = small_config();
  faulty.session_fault_rate = 0.10;
  faulty.max_attempts = 50;  // nothing sheds; every fault only delays
  serve::SessionServer drilled(faulty, 2);
  drilled.add_fleet(small_fleet());
  drilled.serve();

  const serve::ServeCounters& c = drilled.counters();
  EXPECT_GT(c.drills_injected, 0u);
  EXPECT_EQ(c.drills_injected, c.backoff_events);
  EXPECT_EQ(c.sessions_completed, 6u);
  ASSERT_EQ(drilled.outcomes().size(), calm.outcomes().size());
  for (std::size_t i = 0; i < calm.outcomes().size(); ++i) {
    // Same simulation, different schedule: the SimResult is bit-identical
    // even though end ticks and attempts differ.
    EXPECT_TRUE(drilled.outcomes()[i].result == calm.outcomes()[i].result)
        << "session " << i;
  }
  EXPECT_TRUE(drilled.summary() == calm.summary());
  expect_reconciled(drilled);
}

TEST(Serve, RetryBudgetShedsChronicallyFaultySessions) {
  serve::ServeConfig config = small_config();
  config.session_fault_rate = 1.0;  // every quantum faults
  config.max_attempts = 3;
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_shed_retry, 6u);
  EXPECT_EQ(c.sessions_completed, 0u);
  // Each session: (max_attempts - 1) backoffs, then the shedding fault.
  EXPECT_EQ(c.drills_injected, c.backoff_events + c.sessions_shed_retry);
  for (const auto& o : server.outcomes()) {
    EXPECT_EQ(o.state, serve::SessionState::kShedRetry);
    EXPECT_EQ(o.attempts, 3);
    EXPECT_EQ(o.records_fed, 0u);
  }
  expect_reconciled(server);
}

TEST(Serve, DeadlineWatchdogShedsSlowSessions) {
  serve::ServeConfig config = small_config();
  config.deadline_ticks = 5;  // 3000 records need ~24 quanta: nobody makes it
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_shed_deadline, 6u);
  EXPECT_EQ(c.deadline_violations, 6u);
  EXPECT_GT(c.shed_queued_records, 0u);
  expect_reconciled(server);
}

TEST(Serve, BackpressureDefersIngestWhenQueueFills) {
  serve::ServeConfig config = small_config();
  config.queue_capacity = 256;
  config.ingest_per_tick = 256;
  config.quantum_records = 64;  // drains slower than it fills
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  EXPECT_GT(server.counters().ingest_defers, 0u);
  EXPECT_EQ(server.counters().sessions_completed, 6u);
  expect_reconciled(server);
}

TEST(Serve, GracefulDrainFlushesRejectsAndAccounts) {
  serve::ServeConfig config = small_config();
  config.max_live_sessions = 2;  // guarantee pending sessions at drain time
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.tick());
  server.request_drain();
  server.serve();
  ASSERT_TRUE(server.finished());
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_rejected, 4u);
  EXPECT_EQ(c.sessions_drained, 2u);
  EXPECT_EQ(server.queued_records(), 0u);
  for (const auto& o : server.outcomes()) {
    if (o.state == serve::SessionState::kDrained) {
      EXPECT_GT(o.records_fed, 0u);
      EXPECT_LT(o.records_fed, 3000u);
      EXPECT_GT(o.result.demand_reads, 0u);  // partial result is real
    } else {
      EXPECT_EQ(o.state, serve::SessionState::kRejected);
      EXPECT_EQ(o.records_fed, 0u);
    }
  }
  // Drained partials stay out of the completed-session percentiles.
  EXPECT_TRUE(server.summary().amat_by_app.groups.empty());
  expect_reconciled(server);
}

/// Chaos-grade config: in-simulator faults armed per session plus drill
/// faults on the serving loop, checkpointing on.
serve::ServeConfig chaos_config(const std::string& checkpoint_dir) {
  serve::ServeConfig config = small_config();
  config.sim.fault.rate[static_cast<int>(fault::FaultClass::kSlpPatternFlip)] =
      0.01;
  config.sim.fault.rate[static_cast<int>(fault::FaultClass::kDramStall)] =
      0.005;
  config.session_fault_rate = 0.05;
  config.max_attempts = 50;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every_ticks = 4;
  return config;
}

TEST_F(ServeTest, KilledServerResumesBitIdentically) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  const std::string dir = subdir("killed");
  {
    serve::SessionServer victim(chaos_config(dir), 2);
    victim.add_fleet(small_fleet());
    // Kill mid-serve, past at least one checkpoint boundary.
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(victim.tick());
  }  // destructor = the kill; no drain, no final checkpoint

  serve::SessionServer resumed(chaos_config(dir), 2);
  resumed.add_fleet(small_fleet());
  resumed.serve();
  EXPECT_TRUE(resumed.recovery().resumed);
  EXPECT_GT(resumed.recovery().resumed_tick, 0u);
  EXPECT_TRUE(resumed.outcomes() == reference.outcomes());
  EXPECT_TRUE(resumed.counters() == reference.counters());
  EXPECT_TRUE(resumed.summary() == reference.summary());
  expect_reconciled(resumed);
}

TEST_F(ServeTest, WideWaveResumeAtFourThreadsMatchesSerialRun) {
  serve::SessionServer reference(wide_wave_config(subdir("ref")), 1);
  reference.add_fleet(fleet_of(12));
  reference.serve();

  // The same kill, resumed once serially and once over four lanes: the
  // resume fan-out must not change what is restored or how.
  std::vector<serve::RecoveryStats> trails;
  for (const std::size_t threads : {1u, 4u}) {
    const std::string dir =
        subdir(threads == 1 ? "killed-serial" : "killed-pooled");
    {
      serve::SessionServer victim(wide_wave_config(dir), 1);
      victim.add_fleet(fleet_of(12));
      // Tick 8 writes a checkpoint with six sessions live.
      for (int i = 0; i < 9; ++i) ASSERT_TRUE(victim.tick());
    }
    serve::SessionServer resumed(wide_wave_config(dir), threads);
    resumed.add_fleet(fleet_of(12));
    resumed.serve();
    EXPECT_TRUE(resumed.outcomes() == reference.outcomes()) << threads;
    EXPECT_TRUE(resumed.counters() == reference.counters()) << threads;
    EXPECT_TRUE(resumed.summary() == reference.summary()) << threads;
    expect_reconciled(resumed);
    trails.push_back(resumed.recovery());
  }
  const serve::RecoveryStats& serial = trails[0];
  const serve::RecoveryStats& pooled = trails[1];
  EXPECT_TRUE(pooled.resumed);
  EXPECT_EQ(pooled.resumed_tick, 8u);
  EXPECT_GT(pooled.sessions_restored, 4u);  // a wave wider than the lanes
  EXPECT_EQ(pooled.resumed_tick, serial.resumed_tick);
  EXPECT_EQ(pooled.sessions_restored, serial.sessions_restored);
  EXPECT_EQ(pooled.sessions_fell_back, serial.sessions_fell_back);
  EXPECT_EQ(pooled.sessions_replayed, serial.sessions_replayed);
}

TEST_F(ServeTest, CorruptEnvelopeFallsBackToPrev) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  const std::string dir = subdir("killed");
  {
    serve::SessionServer victim(chaos_config(dir), 1);
    victim.add_fleet(small_fleet());
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(victim.tick());
  }
  // Simulate a torn envelope write: truncate current; .prev must carry.
  {
    const std::string envelope = dir + "/server.snap";
    ASSERT_TRUE(fs::exists(envelope));
    fs::resize_file(envelope, fs::file_size(envelope) / 2);
  }
  serve::SessionServer resumed(chaos_config(dir), 1);
  resumed.add_fleet(small_fleet());
  resumed.serve();
  EXPECT_TRUE(resumed.recovery().resumed);
  EXPECT_TRUE(resumed.recovery().fell_back);
  EXPECT_FALSE(resumed.recovery().notes.empty());
  EXPECT_TRUE(resumed.outcomes() == reference.outcomes());
  EXPECT_TRUE(resumed.counters() == reference.counters());
}

TEST_F(ServeTest, CheckpointEnospcDegradesNotCrashes) {
  // Reference run with quiet storage.
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  // Same fleet with ENOSPC injected across the checkpoint write sites: every
  // failed envelope becomes a ckpt_degraded shed (with a recovery note and a
  // bounded backoff re-attempt), and the ledger balances at drain.
  io::IoFaultInjector shim(
      io::IoFaultPlan::single(io::IoFaultClass::kEnospc, 0.4, 0xD15C));
  serve::SessionServer stormy(chaos_config(subdir("enospc")), 1);
  stormy.add_fleet(small_fleet());
  {
    io::ScopedFaultInjector armed(&shim);
    stormy.serve();
  }
  ASSERT_TRUE(stormy.finished());
  expect_reconciled(stormy);
  const serve::ServeCounters& c = stormy.counters();
  EXPECT_GT(shim.injected(io::IoFaultClass::kEnospc), 0u);
  EXPECT_GT(c.ckpt_degraded, 0u);
  EXPECT_GT(c.ckpt_written, 0u);
  EXPECT_FALSE(stormy.recovery().notes.empty());
  // Checkpointing is resilience plumbing, not simulation state: the served
  // results are byte-identical to the quiet-storage run's.
  EXPECT_TRUE(stormy.outcomes() == reference.outcomes());
  EXPECT_TRUE(stormy.summary() == reference.summary());
}

TEST_F(ServeTest, MissingCheckpointsColdStartStillMatches) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();
  // No prior run in this dir: resume finds nothing, serves cold, and the
  // result is still the same pure function of (config, specs).
  serve::SessionServer cold(chaos_config(subdir("fresh")), 1);
  cold.add_fleet(small_fleet());
  cold.serve();
  EXPECT_FALSE(cold.recovery().resumed);
  EXPECT_TRUE(cold.outcomes() == reference.outcomes());
  EXPECT_TRUE(cold.counters() == reference.counters());
}

TEST_F(ServeTest, CheckpointingOffServesTheSameFleet) {
  // With checkpointing off no trace is fingerprinted and nothing is written;
  // the served results must not notice.
  serve::SessionServer with(chaos_config(subdir("ckpt")), 2);
  with.add_fleet(small_fleet());
  with.serve();
  serve::SessionServer without(chaos_config(""), 2);
  without.add_fleet(small_fleet());
  without.serve();
  ASSERT_GT(with.counters().ckpt_written, 0u);
  EXPECT_EQ(without.counters().ckpt_attempted, 0u);
  EXPECT_TRUE(without.outcomes() == with.outcomes());
  EXPECT_TRUE(without.summary() == with.summary());
  // Every counter but the checkpoint ledger agrees too.
  serve::ServeCounters c = without.counters();
  c.ckpt_attempted = with.counters().ckpt_attempted;
  c.ckpt_written = with.counters().ckpt_written;
  c.ckpt_degraded = with.counters().ckpt_degraded;
  EXPECT_TRUE(c == with.counters());
  expect_reconciled(without);
}

/// Every file in `dir`, keyed by name.
std::map<std::string, std::string> file_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST_F(ServeTest, MidRunCheckpointFilesAreThreadCountInvariant) {
  // Ticks 4 and 8 checkpoint with six sessions live, encoded one at a time
  // (1 thread), in three groups of two (2 threads) or in a group of four
  // plus a remainder of two (4 threads). Every file must come out
  // byte-identical.
  std::map<std::string, std::string> serial;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const std::string dir =
        subdir(("threads-" + std::to_string(threads)).c_str());
    serve::SessionServer server(wide_wave_config(dir), threads);
    server.add_fleet(fleet_of(12));
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(server.tick());
    ASSERT_EQ(server.counters().ckpt_written, 2u);
    ASSERT_EQ(server.live_sessions(), 6u);
    const auto files = file_bytes(dir);
    if (threads == 1) {
      serial = files;
      ASSERT_EQ(serial.count("server.snap"), 1u);
      ASSERT_EQ(serial.count("server.snap.prev"), 1u);
      std::size_t sessions = 0;
      for (const auto& [name, bytes] : serial) {
        if (name.starts_with("session_") && name.ends_with(".snap")) {
          ++sessions;
        }
      }
      EXPECT_EQ(sessions, 6u);
      continue;
    }
    ASSERT_EQ(files.size(), serial.size()) << threads;
    for (const auto& [name, bytes] : serial) {
      const auto it = files.find(name);
      ASSERT_NE(it, files.end()) << name << " @" << threads;
      EXPECT_TRUE(it->second == bytes) << name << " @" << threads;
    }
  }
}

TEST_F(ServeTest, StorageFaultTrailIsThreadCountInvariant) {
  // ENOSPC degrades checkpoints, torn writes corrupt them silently; both
  // draw from an injector whose decisions depend on the order of VFS
  // operations. Identical trails at 1 and 4 threads show the parallel
  // encode left that order alone. One directory, emptied between runs, so
  // the notes' paths agree too.
  io::IoFaultPlan plan;
  plan.seed = 0x70A5;
  plan.rate[static_cast<int>(io::IoFaultClass::kEnospc)] = 0.15;
  plan.rate[static_cast<int>(io::IoFaultClass::kTornWrite)] = 0.15;
  const std::string dir = subdir("storm");
  struct Trail {
    std::uint64_t enospc = 0;
    std::uint64_t torn = 0;
    serve::ServeCounters counters;
    std::vector<std::string> notes;
    std::vector<serve::SessionOutcome> outcomes;
  };
  std::vector<Trail> trails;
  for (const std::size_t threads : {1u, 4u}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    io::IoFaultInjector shim(plan);
    serve::SessionServer server(wide_wave_config(dir), threads);
    server.add_fleet(fleet_of(12));
    {
      io::ScopedFaultInjector armed(&shim);
      server.serve();
    }
    expect_reconciled(server);
    trails.push_back({shim.injected(io::IoFaultClass::kEnospc),
                      shim.injected(io::IoFaultClass::kTornWrite),
                      server.counters(), server.recovery().notes,
                      server.outcomes()});
  }
  const Trail& serial = trails[0];
  const Trail& pooled = trails[1];
  EXPECT_GT(serial.enospc, 0u);
  EXPECT_GT(serial.torn, 0u);
  EXPECT_GT(serial.counters.ckpt_degraded, 0u);
  EXPECT_EQ(pooled.enospc, serial.enospc);
  EXPECT_EQ(pooled.torn, serial.torn);
  EXPECT_EQ(pooled.counters.ckpt_degraded, serial.counters.ckpt_degraded);
  EXPECT_TRUE(pooled.counters == serial.counters);
  EXPECT_EQ(pooled.notes, serial.notes);
  EXPECT_TRUE(pooled.outcomes == serial.outcomes);
}

/// An A/B fleet: four traffic streams, each served by three prefetcher
/// kinds on identical traffic, kind-major, so (app, user_seed) repeats
/// inside the first six-session admission wave and again across later
/// waves. Streams 0 and 1 share an app and streams 1 and 3 share a user
/// seed, so neither half of the trace key alone identifies a trace.
std::vector<serve::SessionSpec> ab_fleet() {
  const std::pair<const char*, std::uint64_t> traffic[] = {
      {"HoK", 7}, {"HoK", 8}, {"Fort", 9}, {"TikT", 8}};
  const sim::PrefetcherKind kinds[] = {sim::PrefetcherKind::kPlanaria,
                                       sim::PrefetcherKind::kStride,
                                       sim::PrefetcherKind::kNone};
  std::vector<serve::SessionSpec> fleet;
  for (const sim::PrefetcherKind kind : kinds) {
    for (const auto& [app, seed] : traffic) {
      serve::SessionSpec spec;
      spec.app = app;
      spec.kind = kind;
      spec.user_seed = seed;
      spec.device = seed % 2 == 0 ? "phone" : "tablet";
      fleet.push_back(spec);
    }
  }
  return fleet;
}

TEST_F(ServeTest, RepeatedTraceKeysAreThreadCountInvisible) {
  // Outcomes, counters, summaries and every checkpoint file, mid-run and at
  // drain, are byte-equal whether a wave's repeated keys are generated and
  // copied on one lane or four.
  struct Run {
    std::vector<serve::SessionOutcome> outcomes;
    serve::ServeCounters counters;
    serve::FleetSummary summary;
    std::map<std::string, std::string> mid_files, final_files;
  };
  std::vector<Run> runs;
  for (const std::size_t threads : {1u, 4u}) {
    const std::string dir =
        subdir(("ab-threads-" + std::to_string(threads)).c_str());
    serve::SessionServer server(wide_wave_config(dir), threads);
    server.add_fleet(ab_fleet());
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(server.tick());
    Run run;
    run.mid_files = file_bytes(dir);
    server.serve();
    expect_reconciled(server);
    run.outcomes = server.outcomes();
    run.counters = server.counters();
    run.summary = server.summary();
    run.final_files = file_bytes(dir);
    runs.push_back(std::move(run));
  }
  const Run& serial = runs[0];
  const Run& pooled = runs[1];
  EXPECT_EQ(serial.counters.sessions_completed, 12u);
  EXPECT_GT(serial.counters.ckpt_written, 2u);
  EXPECT_TRUE(pooled.outcomes == serial.outcomes);
  EXPECT_TRUE(pooled.counters == serial.counters);
  EXPECT_TRUE(pooled.summary == serial.summary);
  EXPECT_EQ(serial.mid_files.count("server.snap"), 1u);
  EXPECT_TRUE(pooled.mid_files == serial.mid_files);
  EXPECT_TRUE(pooled.final_files == serial.final_files);
}

TEST_F(ServeTest, RepeatedTraceKeysResumeFromAnyKillTick) {
  serve::SessionServer reference(wide_wave_config(subdir("ref")), 1);
  reference.add_fleet(ab_fleet());
  reference.serve();
  // Kill ticks inside the first wave (before and after its first
  // checkpoint) and inside later waves. A resume regenerates the live
  // sessions as one wave. Past tick 24 drills have scattered the first
  // wave's completions, so a session that was a copy at admission is
  // generated at resume, and a copied fingerprint that disagreed with a
  // generated one would reject the envelope.
  for (const int kill_at : {2, 5, 9, 14, 26, 33}) {
    const std::string dir =
        subdir(("ab-killed-" + std::to_string(kill_at)).c_str());
    {
      serve::SessionServer victim(wide_wave_config(dir), 1);
      victim.add_fleet(ab_fleet());
      for (int i = 0; i < kill_at; ++i) ASSERT_TRUE(victim.tick());
    }
    serve::SessionServer resumed(wide_wave_config(dir), 4);
    resumed.add_fleet(ab_fleet());
    resumed.serve();
    if (kill_at >= 5) {
      EXPECT_TRUE(resumed.recovery().resumed) << kill_at;
      EXPECT_FALSE(resumed.recovery().fell_back) << kill_at;
      EXPECT_TRUE(resumed.recovery().notes.empty()) << kill_at;
    }
    EXPECT_TRUE(resumed.outcomes() == reference.outcomes()) << kill_at;
    EXPECT_TRUE(resumed.counters() == reference.counters()) << kill_at;
    EXPECT_TRUE(resumed.summary() == reference.summary()) << kill_at;
    expect_reconciled(resumed);
  }
}

TEST(Serve, RepeatedTraceKeysMatchStandaloneSessions) {
  // Every session of the A/B fleet — copied or generated — must simulate
  // exactly what a server holding that one session alone, generating its
  // own trace, simulates. Six live slots put repeated keys in one wave.
  serve::SessionServer fleet(wide_wave_config(), 4);
  fleet.add_fleet(ab_fleet());
  fleet.serve();
  const auto& outcomes = fleet.outcomes();
  ASSERT_EQ(outcomes.size(), 12u);
  for (const serve::SessionOutcome& o : outcomes) {
    ASSERT_EQ(o.state, serve::SessionState::kCompleted) << o.id;
    serve::SessionServer alone(wide_wave_config(), 1);
    alone.add_session(o.spec);
    alone.serve();
    ASSERT_EQ(alone.outcomes().size(), 1u);
    EXPECT_TRUE(alone.outcomes()[0].result == o.result) << "session " << o.id;
  }
  // The kinds really do differ on the same traffic, so a copy from the
  // wrong source could not hide behind identical results.
  EXPECT_FALSE(outcomes[0].result == outcomes[4].result);
}

TEST(Serve, AddSessionAfterStartThrows) {
  serve::SessionServer server(small_config(), 1);
  server.add_fleet(small_fleet());
  ASSERT_TRUE(server.tick());
  EXPECT_THROW(server.add_session(serve::SessionSpec{}), std::logic_error);
}

TEST(Serve, UnknownAppRejectedAtSubmitTime) {
  serve::SessionServer server(small_config(), 1);
  serve::SessionSpec spec;
  spec.app = "NotAnApp";
  EXPECT_THROW(server.add_session(spec), std::out_of_range);
}

TEST(Serve, ForEachReadySerialAndPooledAgree) {
  std::vector<int> serial(16, 0);
  serve::for_each_ready(nullptr, serial.size(),
                        [&serial](std::size_t i) { serial[i] = static_cast<int>(i); });
  common::ThreadPool pool(3);
  std::vector<int> pooled(16, 0);
  serve::for_each_ready(&pool, pooled.size(),
                        [&pooled](std::size_t i) { pooled[i] = static_cast<int>(i); });
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace planaria
