// Table II: characteristics of training states (location and size) — shown
// for every model of the zoo, taken from a live worker's hook registry.
#include "bench_common.h"
#include "elan/worker.h"
#include "sim/simulator.h"
#include "transport/bus.h"

int main() {
  using namespace elan;
  bench::Testbed tb;
  bench::print_header("Table II — characteristics of training states",
                      "GPU states (model, optimizer) dwarf CPU states "
                      "(data loader cursor, runtime info).");
  sim::Simulator sim;
  transport::MessageBus bus(sim, tb.bandwidth);

  for (const auto& m : train::model_zoo()) {
    WorkerProcess w(bus, "inventory", 0, 0, m, train::EngineKind::kDynamicGraph,
                    WorkerParams{}, Rng(1), /*already_running=*/true);
    // The data-loader hook is normally registered by the owning job.
    w.hooks().register_hook(StateHook{"data_loader", StateLocation::kCpu, 64_KiB,
                                      [] { return Blob("data_loader", 16); },
                                      [](const Blob&) {}});
    Table t({"State", "Location", "Nominal size"});
    for (const auto& row : w.hooks().inventory()) {
      t.add(row.name, to_string(row.location), format_bytes(row.nominal_bytes));
    }
    std::printf("%s:\n", m.name.c_str());
    bench::print_table(t);
  }
  return 0;
}
