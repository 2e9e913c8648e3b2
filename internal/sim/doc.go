// Package sim simulates recommendation inference serving on one server:
// the query dispatcher, batching queues, co-located inference threads,
// sparse–dense pipelines, and accelerator offload of Fig. 3 and Fig. 10.
//
// The simulator advances virtual time with a deterministic FCFS
// "waterfall": queries are processed in arrival order, each stage
// reserves its resources (CPU threads, the PCIe link, the GPU engine)
// at the earliest feasible instant, and batch service times come from
// internal/costmodel. This is equivalent to a discrete-event simulation
// of a non-preemptive FCFS system and costs O(Q·log) per run, fast
// enough for the thousands of runs the schedulers' searches need.
//
// The surface:
//
//   - Config — one point in the task-scheduling space Psp(M+D+O):
//     placement (CPU model/SD-pipeline, accelerator model/SD), thread
//     and operator-worker counts, batch split size, co-location degree,
//     fusion limit, NMP use. DeepRecSysCPU and the scheduler searches
//     (internal/sched) produce Configs; Validate checks one against a
//     server's resources;
//   - Server (New) / Simulate — replay a query stream under a Config
//     and return latency percentiles, stage accounting and power
//     activity;
//   - FindCapacity — the latency-bounded throughput search (the SLA
//     capacity metric every profiling and scheduling stage optimizes).
//
// CPU batch costs are memoized on (items, co-active threads, scale
// bucket, phase); the Config and the Server's fields supply the rest
// of a cost's inputs. A memo therefore lives exactly as long as one
// Config's simulations: one Simulate or Evaluate call, or one whole
// FindCapacity search (about twenty evaluations pricing largely the
// same batches). It is never kept on the Server, which callers may
// retain for a process's lifetime and whose Params they may edit
// between searches.
package sim
