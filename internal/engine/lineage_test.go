package engine_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// On the native substrate a chunk boundary builds its replica original
// states only when the speculative state misses the final one. Nothing a
// session commits may show it: not an output byte, not a verdict — the
// comparisons charged and whether one matched — and not a snapshot byte,
// because a capture builds the replicas before it encodes the lineage.

// lineageDigests are, per benchmark and worker count, the SHA-256 of a
// 72-input streaming session's committed output lines, every chunk's
// verdict projection and the framed bytes of the snapshot taken at every
// commit, recorded while every chunk still built its replicas eagerly. A
// snapshot records its session's worker count, so each count has its own.
var lineageDigests = map[string]string{
	"bodytrack/1":         "92fff80c8970d48faec7b76a406de1ac9272f2b813c2a91d1b927b52b192b6ad",
	"bodytrack/2":         "508192c398ad1aa10fd204875291918d32c5685e45f46c9f4cea9f2b01756618",
	"bodytrack/4":         "bed8f1723b70c5d9ee6ba6f1434f60cec9e1ffee73c811dbd75b776826ad5f04",
	"dedupstream/1":       "57780328bc019fe3e60e5f1772eed5d32ea94c99a14b3aa81e03c9ad710db949",
	"dedupstream/2":       "a420ef699a02c8e643623aec0d7edd43cbb3e0ddf5ad2e31a6431f6ccf589bea",
	"dedupstream/4":       "8f76ab0132f241c0277338f3a57c2604fb03be171741bcbe1ddd1ff2fce29ce9",
	"facedet-and-track/1": "ea8d4eed8d36ac3de577d6f76a90dae6967b3a14d14c3a76f5477f700f6901b5",
	"facedet-and-track/2": "0365aadc31b5ace79cc6d09653672b0d051683c72fc1404bfd1fbc812811da04",
	"facedet-and-track/4": "3dc749765ac2fd05f011b037c90da8f986406d9373df4417cf579a211253807f",
	"facetrack/1":         "80716f45561861197320d7ffd81b34fd1621862ee03e736fce6cd6a705f8711c",
	"facetrack/2":         "5424790b87e7b37659b6468ecc0d7b16e4ead199d289203cf342111ec7c1bef8",
	"facetrack/4":         "b94b284bd04c171c57c846321a824e8990548b556f19ce0166adb6280b18b62a",
	"fluidanimate/1":      "65f5bfc3f05e062d407c42168420c1e9b572dacd358adf08ae8c8807721e7eb5",
	"fluidanimate/2":      "6dac6e727a6003ff5cebf4b9204f9b0aab3bbbc8d1de44a25e71adba496c46e3",
	"fluidanimate/4":      "2adde2020a2dd1460e53d6a24f9f0cbb0f68c533252ce1ca92b3441ef6884746",
	"streamclassifier/1":  "7afc786161ce3a90fe0aeb364a43d2b419acb773ca6b168f39061b2e6fbb3105",
	"streamclassifier/2":  "a524cda63865016f58d93952c1c2be8fda030eb627c4fcff206677906b5089e5",
	"streamclassifier/4":  "93872b95c0612627c68d03bf3ff3336f92607b57dd06821d49f21df634f6e036",
	"streamcluster/1":     "5aca1ce410002fb2aa33b57192edf0e9431f6c8cf973feeb3d65e63ad6045932",
	"streamcluster/2":     "e3f0ee5b35e39ade95e854682441988873ee58c3d2fc065dd6e618122b8e4af0",
	"streamcluster/4":     "7c516dfd6c9d20944de336b4a9a2a2ffb4084a0e43dac7e64b8b0c6c94618986",
	"swaptions/1":         "b51c20a7d8aa2779cc7f78b143a3039525d823ffa148a52af9d24b10314487b3",
	"swaptions/2":         "de9a59df3c2aa961fd58a6ca8ee44f0b24894b3feb6b4067517fe5599b690b83",
	"swaptions/4":         "e1f91406917f4f9d730cc53e349a2abae53c5cb861c91082e15e2ba6a6cc66e2",
}

// verdictLog keeps, per chunk, the events that decide it: EvValidated
// with its comparisons charged and verdict, then EvCommitted or
// EvAborted. They all come from the commit frontier, in chunk order.
type verdictLog struct{ chunkLog }

func (l *verdictLog) Event(e engine.Event) {
	switch e.Kind {
	case engine.EvValidated, engine.EvCommitted, engine.EvAborted:
		l.chunkLog.Event(e)
	}
}

// split counts a session's boundaries by where the wave stopped: on the
// final state, on a replica, or nowhere.
func (l *verdictLog) split() (final, replica, missed int) {
	for _, evs := range l.byChunk {
		for _, e := range evs {
			switch {
			case e.Kind != engine.EvValidated:
			case !e.Matched:
				missed++
			case e.N == 1:
				final++
			default:
				replica++
			}
		}
	}
	return final, replica, missed
}

// hashOutcomes folds committed output lines and per-chunk event sequences,
// in chunk order, into h.
func hashOutcomes(h hash.Hash, lines [][]byte, byChunk map[int][]untimed) {
	for _, line := range lines {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	chunks := make([]int, 0, len(byChunk))
	for j := range byChunk {
		chunks = append(chunks, j)
	}
	sort.Ints(chunks)
	for _, j := range chunks {
		fmt.Fprintf(h, "%d %+v\n", j, byChunk[j])
	}
}

// lineageDigest runs one benchmark's session twice at workers — without
// checkpoints, so every missed boundary builds its replicas at the
// frontier, and with one at every commit, so every capture builds them —
// checks that both commit the same outputs and verdicts, and hashes those
// with the snapshots' framed bytes.
func lineageDigest(t *testing.T, name string, workers int) (string, *verdictLog) {
	t.Helper()
	inputs := bench.MustNew(name).Inputs(rng.New(1))
	if len(inputs) > 72 {
		inputs = inputs[:72]
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.StreamConfig{ChunkSize: 4, Lookback: 2, ExtraStates: 2, Workers: workers, Seed: 5}

	plain := &verdictLog{}
	cfg.Sink = plain
	lines, _, _ := sessionRun(t, name, cfg, inputs)
	want := sha256.New()
	hashOutcomes(want, lines, plain.byChunk)

	ckpt := &verdictLog{}
	cfg.Sink, cfg.Checkpoint = ckpt, engine.CheckpointConfig{EveryCommits: 1, Codec: wc}
	lines, snaps, _ := sessionRun(t, name, cfg, inputs)
	h := sha256.New()
	hashOutcomes(h, lines, ckpt.byChunk)
	if string(h.Sum(nil)) != string(want.Sum(nil)) {
		t.Errorf("%s workers=%d: checkpointing changed the committed outputs or verdicts", name, workers)
	}
	for _, snap := range snaps {
		b, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), plain
}

func TestLineageDigests(t *testing.T) {
	names, counts := bench.Names(), []int{1, 2, 4}
	if len(names)*len(counts) != len(lineageDigests) {
		t.Fatalf("%d benchmarks registered, %d digests pinned", len(names), len(lineageDigests))
	}
	var final, replica, missed int
	for _, name := range names {
		for _, workers := range counts {
			got, log := lineageDigest(t, name, workers)
			if want := lineageDigests[fmt.Sprintf("%s/%d", name, workers)]; got != want {
				t.Errorf("%s workers=%d: lineage digest %s, pinned %s", name, workers, got, want)
			}
			if workers == 1 {
				f, r, m := log.split()
				t.Logf("%s: %d boundaries matched on the final state, %d on a replica, %d missed", name, f, r, m)
				final, replica, missed = final+f, replica+r, missed+m
			}
		}
	}
	// The digests only guard the deferred path if sessions take it.
	if final == 0 || replica == 0 || missed == 0 {
		t.Errorf("verdict split %d/%d/%d: every kind of boundary must occur", final, replica, missed)
	}
}
