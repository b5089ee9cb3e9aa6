package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// The traced run prints one row per layer between the bare Update loop and
// the gateway. Rows come from two sources. Traced pairs: a fixed number of
// the workload's own pairs with the wrappers and the event sink attached, so
// counts repeat exactly and shares are of the workload's real passes. Direct
// probes: a fixed-size exercise of one layer's public functions on one
// session of the workload's own inputs, where the workload itself does not
// pass through the layer (a native workload never touches the gate) or the
// figure needs a controlled comparison (sinks attached / not).

const (
	outDir = "benchmark/out"
	// The traced run's fixed pair counts: its work does not depend on
	// --seconds, so its counts repeat exactly.
	untracedPairs = 6
	tracedPairs   = 4
)

// runTraced is the --trace 1 run. Its work is fixed by the table, not by
// --seconds.
func runTraced(ctx context.Context, w workload, seed uint64, build time.Duration) (*result, error) {
	tr := newTracer()
	e, err := setup(ctx, w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	m := map[string]float64{
		"harness.build_s":      build.Seconds(),
		"workload.generate_ms": float64(e.generate) / 1e6,
	}
	all := &pairLog{} // session counts of the whole run
	if _, err := runPairs(ctx, e, warmupPairs, 0, all); err != nil {
		return nil, err
	}
	// Untraced pairs first: the same code the untraced run times, here as
	// the base of the tracing overhead and of the run's own noise gauges.
	un, err := runPairs(ctx, e, untracedPairs, 0, all)
	if err != nil {
		return nil, err
	}
	m["harness.pairs"] = untracedPairs
	m["harness.seq_ns_per_input"] = median(un.log.seqNs)
	m["harness.stats_ns_per_input"] = median(un.log.statsNs)
	m["harness.pair_iqr"] = iqrOverMedian(un.log.speedups())
	m["harness.seq_drift"] = un.log.seqDrift()
	m["engine.allocs_per_input"] = median(un.log.allocN)

	run := tr.open("run", 0)
	tot, err := runPairs(ctx, e, tracedPairs, run, all)
	tr.end(run)
	if err != nil {
		return nil, err
	}
	m["harness.trace_overhead_ratio"] = median(tot.log.statsNs) / median(un.log.statsNs)
	m["harness.heap_inuse_peak_mb"] = float64(max(un.log.heapPeak, tot.log.heapPeak)) / (1 << 20)
	tracedLayerMetrics(m, tr, tot, int64(tracedPairs*e.inputs))

	// The pairs are over: free the workload's own backend and gate before
	// the probes start theirs.
	e.close()
	samples := map[string]int{}
	l, err := directProbes(ctx, m, samples, w, seed, all)
	if err != nil {
		return nil, err
	}
	// The rows must add up: the rungs multiplied from the sequential loop to
	// the gate against the same distance measured in one step — by the
	// untraced pairs on the wire workload, whose STATS passes are that path
	// (at full session length; the probe session may be shorter), and by the
	// probe rounds elsewhere. Outside 0.85-1.15 a layer is missing.
	measured := l.gateVsSeq
	if w.Wire {
		measured = median(pairRatios(un.log.statsNs, un.log.seqNs))
	}
	m["harness.ladder_closure"] = l.nativeVsSeq * m["serve.direct_vs_native"] * m["gate.hop_ratio"] / measured
	if err := tr.write(outDir, w.Name, seed, samples); err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s\n", filepath.Join(outDir, w.Name+".trace.json"))
	return &result{metrics: m, attempted: all.attempted, failed: all.failed}, nil
}

// tracedLayerMetrics fills the rows that come from the traced pairs: the
// wrappers' call timers, the event counters and the stage spans. busy is the
// harness process's CPU over the traced STATS passes; the busy shares divide
// it among kernel, validation, codec, checkpoint framing and — the remainder
// — the engine (with, on the wire workload, HTTP and the serve layer), so
// they sum to 1 by construction.
func tracedLayerMetrics(m map[string]float64, tr *tracer, tot pairTotals, inputs int64) {
	sums := tot.sums
	share := func(ns float64) float64 { return ns / float64(tot.busy) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	up, cl := tr.ops.update.summary(), tr.ops.clone.summary()
	fp, ma := tr.ops.fingerprint.summary(), tr.ops.match.summary()
	m["bench.update_calls"] = float64(up.Calls)
	m["bench.update_ns_p50"] = up.P50ns
	m["bench.update_busy_share"] = share(up.BusyNs)
	m["bench.extra_update_share"] = ratio(up.Calls-inputs, up.Calls)
	m["bench.clone_calls"] = float64(cl.Calls)
	m["bench.clone_ns_p50"] = cl.P50ns
	m["bench.clone_busy_share"] = share(cl.BusyNs)
	m["bench.fingerprint_calls"] = float64(fp.Calls)
	m["bench.match_calls"] = float64(ma.Calls)
	// Validation is a digest comparison first and a deep Match second; the
	// share covers both.
	m["bench.match_busy_share"] = share(ma.BusyNs + fp.BusyNs)
	m["codec.busy_share"] = share(tr.ops.codecBusyNs())
	m["checkpoint.busy_share"] = share(tr.ops.snapshot.summary().BusyNs)
	m["engine.self_busy_share"] = 1 - m["bench.update_busy_share"] - m["bench.clone_busy_share"] -
		m["bench.match_busy_share"] - m["codec.busy_share"] - m["checkpoint.busy_share"]

	c := tr.counters.Snapshot()
	m["engine.commit_rate"] = ratio(c.Commits, c.Commits+c.Aborts)
	m["engine.chunks"] = float64(c.Chunks)
	m["engine.states_per_chunk"] = ratio(sums.states, c.Chunks)
	m["engine.pool_reuse_share"] = ratio(sums.reused, sums.states)
	m["engine.reexec_input_share"] = ratio(c.ReexecUpdates, c.Ingested)
	m["engine.extra_updates_per_input"] = ratio(c.AltUpdates+c.OrigUpdates, c.Ingested)
	m["engine.state_copies_per_chunk"] = ratio(c.Overheads().StateCopies, c.Chunks)
	m["engine.faults"] = float64(sums.faults)
	for name, spanName := range map[string]string{
		"engine.stage_speculate_us_p50": spanSpeculate, "engine.stage_validate_us_p50": spanValidate,
		"engine.stage_commit_us_p50": spanCommit, "engine.stage_reexec_us_p50": spanReexec,
	} {
		m[name] = median(tr.durations(spanName)) / 1e3
	}
	m["engine.push_wait_share"] = float64(tr.pushWait.Load()) / float64(tot.wall)
}
