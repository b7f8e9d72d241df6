// Header hygiene: every public header must be self-contained (include what
// it uses). This TU includes each one FIRST relative to its group, so a
// missing transitive include breaks the build here rather than in a user's
// project.
#include "baselines/adjustment_cost.h"
#include "baselines/litz.h"
#include "comm/group.h"
#include "comm/ps_model.h"
#include "common/blob.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "elan/hooks.h"
#include "elan/hybrid_scaling.h"
#include "elan/job.h"
#include "elan/master.h"
#include "elan/messages.h"
#include "elan/replication.h"
#include "elan/worker.h"
#include "experiments/adabatch.h"
#include "memory/device_memory.h"
#include "minidl/dataset.h"
#include "minidl/elan_engine.h"
#include "minidl/mlp.h"
#include "minidl/parallel.h"
#include "minidl/tensor.h"
#include "sched/allocation.h"
#include "sched/cluster.h"
#include "sched/job.h"
#include "sched/live_scheduler.h"
#include "sched/metrics.h"
#include "sched/trace.h"
#include "sched/trace_io.h"
#include "sim/simulator.h"
#include "storage/filesystem.h"
#include "topology/bandwidth.h"
#include "topology/printer.h"
#include "topology/topology.h"
#include "train/convergence.h"
#include "train/engine.h"
#include "train/lr_schedule.h"
#include "train/models.h"
#include "train/optimizer.h"
#include "train/throughput.h"
#include "transport/bus.h"
#include "transport/kv_store.h"
#include "transport/message.h"

#include <gtest/gtest.h>

namespace elan {
namespace {

TEST(Headers, AllPublicHeadersCompile) {
  // The assertions are in the includes above; this test just anchors the TU.
  SUCCEED();
}

}  // namespace
}  // namespace elan
