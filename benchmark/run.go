package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"
)

const (
	// setupsPerRun set-ups are spread through an untraced run, each followed
	// by its share of the timed pairs, and setup_s is their median: a single
	// set-up is mostly spawn jitter, and work moved into set-up must show.
	setupsPerRun = 5
	// warmupPairs untimed pairs end every set-up: caches fill, pools and
	// slabs reach their steady size, the keep-alive connection opens.
	warmupPairs = 2
)

// pairLog accumulates a run's timed pairs, one entry per pair in each slice.
type pairLog struct {
	seqNs, statsNs   []float64 // wall ns per input
	seqCPU, statsCPU []float64 // CPU ns per input
	allocB, allocN   []float64 // STATS pass bytes and objects allocated per input
	attempted        int       // STATS sessions, warm-up included
	failed           int
	heapPeak         uint64
}

func (l *pairLog) add(seq, st pass) {
	l.seqNs = append(l.seqNs, seq.nsPerInput())
	l.statsNs = append(l.statsNs, st.nsPerInput())
	l.seqCPU = append(l.seqCPU, seq.cpuPerInput())
	l.statsCPU = append(l.statsCPU, st.cpuPerInput())
	l.allocB = append(l.allocB, float64(st.allocB)/float64(st.inputs))
	l.allocN = append(l.allocN, float64(st.allocN)/float64(st.inputs))
}

func (l *pairLog) count(st pass) {
	l.attempted += st.sessions
	l.failed += st.failed
}

func (l *pairLog) speedups() []float64  { return pairRatios(l.seqNs, l.statsNs) }
func (l *pairLog) cpuRatios() []float64 { return pairRatios(l.statsCPU, l.seqCPU) }

// seqDrift is the slowest sequential pass over the fastest: how far the
// host's speed moved while the run lasted.
func (l *pairLog) seqDrift() float64 {
	s := sorted(l.seqNs)
	if len(s) == 0 || s[0] == 0 {
		return 0
	}
	return s[len(s)-1] / s[0]
}

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// sampleHeap notes the heap in use; it is called between pairs, so the run
// needs no sampler thread.
func (l *pairLog) sampleHeap() {
	s := append([]metrics.Sample(nil), heapSamples...)
	metrics.Read(s)
	if inuse := s[0].Value.Uint64() + s[1].Value.Uint64(); inuse > l.heapPeak {
		l.heapPeak = inuse
	}
}

// runPair runs one sequential and one STATS pass over the same inputs, back
// to back, the order alternating with i so that neither side always runs on
// what the other left in the caches. parent is the run span on traced pairs.
func runPair(ctx context.Context, e *env, i, parent int) (seq, st pass, err error) {
	pairSpan := e.tr.child("pair", parent)
	defer e.tr.end(pairSpan)
	runSeq := func() {
		sp := e.tr.child("pass.sequential", pairSpan)
		seq, err = e.seqPass()
		e.tr.end(sp)
	}
	runStats := func() {
		sp := e.tr.child("pass.stats", pairSpan)
		st = e.statsPass(ctx, sp)
		e.tr.end(sp)
	}
	if i%2 == 0 {
		runSeq()
		runStats()
	} else {
		runStats()
		runSeq()
	}
	if err == nil && e.gate != nil {
		err = e.gate.exited()
	}
	return seq, st, err
}

// pairTotals is what a fixed number of pairs adds up to.
type pairTotals struct {
	busy time.Duration // harness-process CPU of the STATS passes
	wall time.Duration // their wall time
	sums streamSums
	log  pairLog
}

// runPairs runs n pairs, traced under the span parent when it is not 0, and
// counts their sessions into all.
func runPairs(ctx context.Context, e *env, n, parent int, all *pairLog) (pairTotals, error) {
	var tot pairTotals
	for i := 0; i < n; i++ {
		seq, st, err := runPair(ctx, e, i, parent)
		all.count(st)
		if err != nil {
			return tot, err
		}
		tot.log.add(seq, st)
		tot.log.sampleHeap()
		tot.busy += st.selfCPU
		tot.wall += st.wall
		tot.sums.add(st.sums)
	}
	return tot, nil
}

// result is what a run reports: metric values by name and the session count.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// runUntraced measures the end-to-end metrics for seconds: five set-ups, each
// followed by timed pairs until its fifth of the window is spent.
func runUntraced(ctx context.Context, w workload, seed uint64, seconds int) (*result, error) {
	start := time.Now()
	window := time.Duration(seconds) * time.Second
	log := &pairLog{}
	var setups []float64
	pair := 0
	for seg := 1; seg <= setupsPerRun; seg++ {
		t0 := time.Now()
		e, err := setup(ctx, w, seed, nil)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer e.close()
			if _, err := runPairs(ctx, e, warmupPairs, 0, log); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			until := start.Add(window * time.Duration(seg) / setupsPerRun)
			for time.Now().Before(until) {
				seq, st, err := runPair(ctx, e, pair, 0)
				log.count(st)
				if err != nil {
					return err
				}
				log.add(seq, st)
				log.sampleHeap()
				pair++
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if pair == 0 {
		return nil, errors.New("no timed pair fitted into --seconds")
	}
	res := &result{attempted: log.attempted, failed: log.failed, metrics: map[string]float64{
		"speedup_vs_seq":    median(log.speedups()),
		"cpu_vs_seq":        median(log.cpuRatios()),
		"alloc_b_per_input": median(log.allocB),
		"setup_s":           median(setups),
	}}
	fmt.Printf("pairs %d, pair spread (IQR/median of per-pair speedups) %.4f, sequential drift %.3f, set-ups %.3v s\n",
		pair, iqrOverMedian(log.speedups()), log.seqDrift(), setups)
	fmt.Printf("sequential %.1f ns/input, STATS %.1f ns/input (medians over pairs; absolute times do not repeat on a shared host)\n",
		median(log.seqNs), median(log.statsNs))
	return res, nil
}
