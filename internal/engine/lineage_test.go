package engine_test

import (
	"bytes"
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
// session commits may show it: not an output byte and not a verdict — the
// comparisons charged and whether one matched. A checkpoint capture does
// not build them either: it encodes the final state and the replica seed,
// and a resumed frontier builds the replicas from the seed on a miss. The
// snapshot bytes are pinned apart from the outcomes, so a change of the
// snapshot format cannot hide a change of what a session commits.

// outcomeDigests are, per benchmark, the SHA-256 of a 72-input streaming
// session's committed output lines and every chunk's verdict projection,
// recorded while every chunk still built its replicas eagerly. Every
// worker count reproduces them, with checkpoints and without.
var outcomeDigests = map[string]string{
	"bodytrack":         "e7b5772fbdec66a88a6d3eedf420d455a17237d9667693a21b54ee0d9ebd0685",
	"dedupstream":       "d68a7532eaf0529b9d90707346c9c37865241a0181625120810a388876bbda6d",
	"facedet-and-track": "89d825a053116abde5feb95b4d20bd123e5da1cdb16e022e2389da705624c471",
	"facetrack":         "1d379693c99e74a1e42fe14f8da82c90f5384e18c012a4710846a5fe91f9f7e7",
	"fluidanimate":      "d70a040bd97ca6fb4f1a07215fb45f5146f15ccd30b4c4b9e7f1560fed363f0c",
	"streamclassifier":  "6f97c61cfbf3e8b7a7ebbec32adf328bf1edce20cdce2f60ab8968ca682afa75",
	"streamcluster":     "fc2ca93f97c98d6c4339fbd938c7a07c28940a5db97fc77bc9a77b455d362ad0",
	"swaptions":         "0ea7151674532cbe5c752f7842da06db42b762dbaf706583d361ebc619441c44",
}

// snapshotDigests are, per benchmark and worker count, the SHA-256 of the
// framed bytes of the snapshot taken at every commit of that session. A
// snapshot records its session's worker count, so each count has its own.
var snapshotDigests = map[string]string{
	"bodytrack/1":         "2bf3505970441d5376981bd5b3e94af1f2f25d037da51c119c954d1ced910a7b",
	"bodytrack/2":         "cb7dba37f94d6757d8808650fdfaae52f8a022cc91b7ce26cf0f0d84e13ed816",
	"bodytrack/4":         "e7b8941ef599f24a9490fe21b2cfe9571466c5a8038ee020e2fb41f16f5b9640",
	"dedupstream/1":       "fa4ecdaad19e790bc061167b9ce392d41357db396f15dc82e7ea13ae62305a71",
	"dedupstream/2":       "b621a96b38842de81d57f52d004f3db84368614fe7555e765ce39911e8b2aac2",
	"dedupstream/4":       "e1a77ea949cdfbc289760cb90ffd2d139279009e872f4e4156fe6a96908a5f8f",
	"facedet-and-track/1": "5734a31605371ecf9962ea5053f8c8a94cafe1c3432f8eaa778e323906790145",
	"facedet-and-track/2": "bcb7e70ccb5a9140b36ab80894239fc95848253e0e65751ad07f7debdaf37008",
	"facedet-and-track/4": "e34b6a655e805681aa719a0a6a7bec9ed38e70f541642023e185e3470a436c40",
	"facetrack/1":         "b9d619f247668ddcce8b18bdfae208a6ec33a35653eb7ebf6d45bf267c1aa986",
	"facetrack/2":         "67af448f7bb343a96fa1c4899acc549f9ee06dc52309a584f6ced8b59e0f901f",
	"facetrack/4":         "dffd26b0ad918c2c7a06c805776c922c2083f6ebd0e63418e496810a1bda5416",
	"fluidanimate/1":      "22587588d16907c4436c2aaba6cc2ae4a7a9cd7b1c4b006758bba0c50339d4ee",
	"fluidanimate/2":      "7c53a6cb7731dfc67f821b5d54fa17677eac780a36438229e270a81c5e5a5485",
	"fluidanimate/4":      "a5991e4388b2ad434d7af70ffd2e85869213d1afcc784c538abe4621964bc828",
	"streamclassifier/1":  "18463427aa0b69bf1ea23e91c90c1b0c124fa7fe940c497189c2507f26b0c502",
	"streamclassifier/2":  "aaca43ffb9ad73a497b696075ff5e53f470fd5708e27e847ea0fdd621ea4a13a",
	"streamclassifier/4":  "7eff5f31ae5f5905e3eafe1d28549fbf7e63dee57e4fc3745a52436fd6a6853f",
	"streamcluster/1":     "3981de1c3f3068fabe0aabb11de7aa725d1febe03fb83aec04dfda0abb00dd6f",
	"streamcluster/2":     "2070b7282df2639c5100d4023c1b68785a5abd30ae4552ec45b2dbf060c7d8a1",
	"streamcluster/4":     "0dcaf2afadcaa0bfcf7e1646456ba3901c8801dd1a421c22c5141317abb9c98a",
	"swaptions/1":         "7ace2c02959cdaa9a65ee1a01330a8e8a445ba5d8173851011c6fa63dee43458",
	"swaptions/2":         "af2a393f546f8a76f1750153047c8234cbde6927ef35eed631556f7e0aad118b",
	"swaptions/4":         "ca7114a291713e1a2eaf24e3dde4fa9123be1a906eebbc44df3a0bb322fcc390",
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
// frontier, and with one at every commit, so every capture encodes a
// replica seed — checks that both commit the same outputs and verdicts,
// and returns the digest of those and the digest of the snapshots'
// framed bytes.
func lineageDigest(t *testing.T, name string, workers int) (outcomes, snapshots string, log *verdictLog) {
	t.Helper()
	inputs, cfg, wc := lineageSession(t, name, workers)

	plain := &verdictLog{}
	cfg.Sink = plain
	lines, _, _ := sessionRun(t, name, cfg, inputs)
	want := sha256.New()
	hashOutcomes(want, lines, plain.byChunk)

	ckpt := &verdictLog{}
	cfg.Sink, cfg.Checkpoint = ckpt, engine.CheckpointConfig{EveryCommits: 1, Codec: wc}
	lines, snaps, _ := sessionRun(t, name, cfg, inputs)
	got := sha256.New()
	hashOutcomes(got, lines, ckpt.byChunk)
	if string(got.Sum(nil)) != string(want.Sum(nil)) {
		t.Errorf("%s workers=%d: checkpointing changed the committed outputs or verdicts", name, workers)
	}
	framed := sha256.New()
	for _, snap := range snaps {
		b, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		framed.Write(b)
	}
	return fmt.Sprintf("%x", want.Sum(nil)), fmt.Sprintf("%x", framed.Sum(nil)), plain
}

// lineageSession is the shape lineageDigest runs a benchmark in: its
// first 72 inputs in chunks of 4, with a lookback of 2 and 2 replicas.
func lineageSession(t *testing.T, name string, workers int) ([]engine.Input, engine.StreamConfig, bench.WireCodec) {
	t.Helper()
	inputs := bench.MustNew(name).Inputs(rng.New(1))
	if len(inputs) > 72 {
		inputs = inputs[:72]
	}
	wc, err := bench.WireFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return inputs, engine.StreamConfig{ChunkSize: 4, Lookback: 2, ExtraStates: 2, Workers: workers, Seed: 5}, wc
}

func TestLineageDigests(t *testing.T) {
	names, counts := bench.Names(), []int{1, 2, 4}
	if len(names) != len(outcomeDigests) || len(names)*len(counts) != len(snapshotDigests) {
		t.Fatalf("%d benchmarks registered, %d outcome and %d snapshot digests pinned", len(names), len(outcomeDigests), len(snapshotDigests))
	}
	var final, replica, missed int
	for _, name := range names {
		for _, workers := range counts {
			outcomes, snapshots, log := lineageDigest(t, name, workers)
			if want := outcomeDigests[name]; outcomes != want {
				t.Errorf("%s workers=%d: outcome digest %s, pinned %s", name, workers, outcomes, want)
			}
			if want := snapshotDigests[fmt.Sprintf("%s/%d", name, workers)]; snapshots != want {
				t.Errorf("%s workers=%d: snapshot digest %s, pinned %s", name, workers, snapshots, want)
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

// TestSnapshotIgnoresWorkerCount: a snapshot records its session's worker
// count and nothing else of the schedule. Every benchmark's session in
// lineageDigest's shape, with a snapshot at every commit, frames the same
// bytes at 1, 2 and 4 workers once Workers is cleared: the speculation
// window, 2·Workers chunks, reaches no other field.
func TestSnapshotIgnoresWorkerCount(t *testing.T) {
	for _, name := range bench.Names() {
		var want [][]byte
		for _, workers := range []int{1, 2, 4} {
			inputs, cfg, wc := lineageSession(t, name, workers)
			cfg.Checkpoint = engine.CheckpointConfig{EveryCommits: 1, Codec: wc}
			_, snaps, _ := sessionRun(t, name, cfg, inputs)
			framed := make([][]byte, len(snaps))
			for i, snap := range snaps {
				snap.Workers = 0
				var err error
				if framed[i], err = checkpoint.Encode(snap); err != nil {
					t.Fatal(err)
				}
			}
			if want == nil {
				want = framed
				continue
			}
			if len(framed) != len(want) {
				t.Errorf("%s workers=%d: %d snapshots, %d at workers=1", name, workers, len(framed), len(want))
				continue
			}
			for i := range framed {
				if !bytes.Equal(framed[i], want[i]) {
					t.Errorf("%s workers=%d: snapshot %d differs from workers=1's beyond the worker count", name, workers, i)
					break
				}
			}
		}
	}
}
