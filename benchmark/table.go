package main

// This file is the benchmark's one table: workloads with their fixed pass
// sizes, and every metric by name, unit and direction. BENCHMARK.json repeats
// the names; TestTableMatchesBenchmarkJSON keeps the two equal.

// Engine configuration of every STATS session: the statsserved defaults.
const (
	engineSeed  = 3
	chunkSize   = 16
	lookback    = 4
	extraStates = 1
	maxWorkers  = 4 // Workers = min(nproc, maxWorkers)
)

// part is one group of same-shape sessions in a pass.
type part struct {
	Bench    string
	Sessions int // sessions per pass, run one after another
	Inputs   int // inputs per session, a prefix of the benchmark's native stream
}

// workload is one row of the benchmark. Pass sizes are fixed here and never
// calibrated at run time, so a pass is the same work on every host and in
// every run; they are sized for a 50-250 ms pass on a 2-vCPU host.
type workload struct {
	Name string
	Why  string
	// Parts are the sessions of one pass, sequential and STATS alike.
	Parts []part
	// SeqRepeat runs the sequential pass over the sessions this many times,
	// where once would be too short to time; ratios compare per-input times.
	SeqRepeat int
	// Checkpoint cuts a snapshot every 2 commits into a discard buffer.
	Checkpoint bool
	// Wire sends STATS sessions as NDJSON through a statsgate child to an
	// in-harness serve backend, one session in flight.
	Wire bool
	// ProbeInputs caps the session length of the traced run's direct probes
	// (one session of Parts[0].Bench), so a probe session takes 10-50 ms.
	ProbeInputs int
}

var workloads = []workload{
	{
		Name:        "native-compute",
		Why:         "swaptions in-process: 0.5 ms kernel, 24 B state, no aborts; kernel and extra computation dominate, bypass case for engine, codec and wire work",
		Parts:       []part{{Bench: "swaptions", Sessions: 1, Inputs: 128}},
		SeqRepeat:   1,
		ProbeInputs: 48,
	},
	{
		Name: "native-overhead",
		Why:  "streamcluster (82% commits) then streamclassifier (25% commits) in-process: 0.4 us kernel, so rings, frontier, slabs and sinks do the work; bypass case for kernel and state work",
		Parts: []part{
			{Bench: "streamcluster", Sessions: 20, Inputs: 2800},
			{Bench: "streamclassifier", Sessions: 10, Inputs: 2200},
		},
		SeqRepeat:   1,
		ProbeInputs: 1400,
	},
	{
		Name:        "native-state",
		Why:         "dedupstream in-process with a checkpoint every 2 commits: large state cloned, fingerprinted, matched and encoded; ring and frontier changes should not move it",
		Parts:       []part{{Bench: "dedupstream", Sessions: 1, Inputs: 900}},
		SeqRepeat:   1,
		Checkpoint:  true,
		ProbeInputs: 96,
	},
	{
		Name:        "wire-gate",
		Why:         "the streamcluster sessions as NDJSON through statsgate to a serve backend, one in flight: codec, HTTP and relay do 50x the engine's work; differs from native-overhead by the wire",
		Parts:       []part{{Bench: "streamcluster", Sessions: 2, Inputs: 2800}},
		SeqRepeat:   24,
		Wire:        true,
		ProbeInputs: 1400,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one metric. Bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics of an untraced run, all four on every workload.
// Bounds follow the rule in README.md from results/noise.json.
var endToEnd = []metricSpec{
	{"speedup_vs_seq", "ratio", higher, 0.25},
	{"cpu_vs_seq", "ratio", lower, 0.25},
	{"alloc_b_per_input", "B", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of a traced run, in layer order.
var perLayer = []metricSpec{
	// bench: the forwarding Program wrapper around the kernel.
	{Name: "bench.update_calls", Unit: "count", Better: lower},
	{Name: "bench.update_ns_p50", Unit: "ns", Better: lower},
	{Name: "bench.update_busy_share", Unit: "ratio", Better: higher},
	{Name: "bench.extra_update_share", Unit: "ratio", Better: lower},
	{Name: "bench.clone_calls", Unit: "count", Better: lower},
	{Name: "bench.clone_ns_p50", Unit: "ns", Better: lower},
	{Name: "bench.clone_busy_share", Unit: "ratio", Better: lower},
	{Name: "bench.fingerprint_calls", Unit: "count", Better: lower},
	{Name: "bench.match_calls", Unit: "count", Better: lower},
	{Name: "bench.match_busy_share", Unit: "ratio", Better: lower},
	// engine: event sinks, StreamStats and direct scheduler probes.
	{Name: "engine.commit_rate", Unit: "ratio", Better: higher},
	{Name: "engine.chunks", Unit: "count", Better: lower},
	{Name: "engine.states_per_chunk", Unit: "ratio", Better: lower},
	{Name: "engine.pool_reuse_share", Unit: "ratio", Better: higher},
	{Name: "engine.reexec_input_share", Unit: "ratio", Better: lower},
	{Name: "engine.extra_updates_per_input", Unit: "ratio", Better: lower},
	{Name: "engine.state_copies_per_chunk", Unit: "ratio", Better: lower},
	{Name: "engine.stage_speculate_us_p50", Unit: "us", Better: lower},
	{Name: "engine.stage_validate_us_p50", Unit: "us", Better: lower},
	{Name: "engine.stage_commit_us_p50", Unit: "us", Better: lower},
	{Name: "engine.stage_reexec_us_p50", Unit: "us", Better: lower},
	{Name: "engine.push_wait_share", Unit: "ratio", Better: lower},
	{Name: "engine.self_busy_share", Unit: "ratio", Better: lower},
	{Name: "engine.allocs_per_input", Unit: "count", Better: lower},
	{Name: "engine.faults", Unit: "count", Better: lower},
	{Name: "engine.w1_vs_seq", Unit: "ratio", Better: lower},
	{Name: "engine.batch_vs_stream", Unit: "ratio", Better: lower},
	{Name: "engine.sink_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.loss_pct.extra", Unit: "%", Better: lower},
	{Name: "engine.loss_pct.copy", Unit: "%", Better: lower},
	{Name: "engine.loss_pct.sync", Unit: "%", Better: lower},
	{Name: "engine.loss_pct.seqcode", Unit: "%", Better: lower},
	{Name: "engine.loss_pct.imbalance", Unit: "%", Better: lower},
	{Name: "engine.loss_pct.misspec", Unit: "%", Better: lower},
	{Name: "engine.breakdown_ok", Unit: "count", Better: higher},
	// ring: one producer and one consumer goroutine.
	{Name: "ring.spsc_hop_ns", Unit: "ns", Better: lower},
	{Name: "ring.spsc_batch_hop_ns", Unit: "ns", Better: lower},
	{Name: "ring.mpmc_hop_ns", Unit: "ns", Better: lower},
	// codec: NDJSON and state codecs of the workload's benchmark.
	{Name: "codec.decode_input_ns", Unit: "ns", Better: lower},
	{Name: "codec.encode_output_ns", Unit: "ns", Better: lower},
	{Name: "codec.encode_state_ns", Unit: "ns", Better: lower},
	{Name: "codec.decode_state_ns", Unit: "ns", Better: lower},
	{Name: "codec.input_bytes_per_input", Unit: "B", Better: lower},
	{Name: "codec.output_bytes_per_input", Unit: "B", Better: lower},
	{Name: "codec.state_bytes", Unit: "B", Better: lower},
	{Name: "codec.busy_share", Unit: "ratio", Better: lower},
	// checkpoint: snapshot framing and resume.
	{Name: "checkpoint.encode_us_p50", Unit: "us", Better: lower},
	{Name: "checkpoint.decode_us_p50", Unit: "us", Better: lower},
	{Name: "checkpoint.snapshot_bytes", Unit: "B", Better: lower},
	{Name: "checkpoint.snapshots_per_session", Unit: "count", Better: lower},
	{Name: "checkpoint.busy_share", Unit: "ratio", Better: lower},
	{Name: "checkpoint.resume_ms_p50", Unit: "ms", Better: lower},
	// serve: sessions sent straight to the in-harness backend.
	{Name: "serve.direct_vs_native", Unit: "ratio", Better: lower},
	{Name: "serve.first_output_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.session_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.session_ms_hi", Unit: "ms", Better: lower},
	{Name: "serve.shed", Unit: "count", Better: lower},
	// statsgate and the cluster package it routes with.
	{Name: "gate.hop_ratio", Unit: "ratio", Better: lower},
	{Name: "gate.cpu_share", Unit: "ratio", Better: lower},
	{Name: "gate.migrate_hop_ratio", Unit: "ratio", Better: lower},
	{Name: "gate.rerouted", Unit: "count", Better: lower},
	{Name: "cluster.pick_ns", Unit: "ns", Better: lower},
	{Name: "cluster.parse_metrics_ns", Unit: "ns", Better: lower},
	// layers off the serving path: one direct row each.
	{Name: "procexec.runner_vs_local", Unit: "ratio", Better: lower},
	{Name: "workload.generate_ms", Unit: "ms", Better: lower},
	{Name: "machine.events_per_s", Unit: "1/s", Better: higher},
	// harness: the run's own figures and noise gauges.
	{Name: "harness.build_s", Unit: "s", Better: lower},
	{Name: "harness.pairs", Unit: "count", Better: higher},
	{Name: "harness.seq_ns_per_input", Unit: "ns", Better: lower},
	{Name: "harness.stats_ns_per_input", Unit: "ns", Better: lower},
	{Name: "harness.pair_iqr", Unit: "ratio", Better: lower},
	{Name: "harness.seq_drift", Unit: "ratio", Better: lower},
	{Name: "harness.heap_inuse_peak_mb", Unit: "MB", Better: lower},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "harness.ladder_closure", Unit: "ratio", Better: higher},
}
