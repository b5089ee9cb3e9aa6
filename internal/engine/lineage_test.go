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
	"bodytrack/1":         "e9afc1cc39176d805b8a5059a7399d809ef31b89d0fca4c2d66772b559f7c701",
	"bodytrack/2":         "f73b409d01425c8e701cf047066fef3d3b44807d194440680c3685f0082d578e",
	"bodytrack/4":         "6f9a354eb2ab9c10b403037e562a72984befb181fb598cf88dc46d189eaa791f",
	"dedupstream/1":       "b633c47ffc9cd1f25e67110e59b597029bdf7fa96689a2e853fae95de089c3f3",
	"dedupstream/2":       "6a7e504a1ddb2dee56939c416dfc1e12f5867bc83167cb2ca6436a8cff47c7a4",
	"dedupstream/4":       "08c3d07217764848933e8c9a942fc65811b9d3834a28bb565b4c6b9e71dee07d",
	"facedet-and-track/1": "c9af6ede88cc96ad5aa92e0a01bb4695f98a3539b250f84b024620523f292b04",
	"facedet-and-track/2": "5ed06df9c9f7bf758402d349ead38b585960a908eb6a6dc39659f8ca8eea8bd8",
	"facedet-and-track/4": "c5519f780202b058b22cd84d5ea1334629335ef0fd2b346f2f50f6d1cc9c23b6",
	"facetrack/1":         "6ad2b5ffa1adbfdc6f9e0c11b07674f52dfae0bad32abf8cf5b870f6b3bb87ed",
	"facetrack/2":         "fd887f4f32c179eade104cbcd2dd1ca128b281b274d38bada2c22d975004a80f",
	"facetrack/4":         "b69148369e0af746f4f37fa918c7b8a9bd4cd14bca4e9564859e603e4cdfa913",
	"fluidanimate/1":      "600a80c96a0e2a90395f84cc2fbca08c75ac9777f8df6b50f1bc73fe7f39aeb5",
	"fluidanimate/2":      "a02dc514fc18ae4438c791c996297d0660d58378769f3235f7539edd301c72ae",
	"fluidanimate/4":      "2ca0b2f0a01a1066e52ae2e58c00cc7eb4756720f9378ba86668f5f94342946f",
	"streamclassifier/1":  "8cc6526700a2cb753a7ca108f690a090c361d86cf95578cb5ebe4cf6b9ae8e02",
	"streamclassifier/2":  "10499c63a622472e26153450ae33d1fcdda8d16d1316bc2514bb1ecd72a625b5",
	"streamclassifier/4":  "dacaabc0b76f58149230d3dcdcf10014e00accc689f206527e341069ecdee2be",
	"streamcluster/1":     "0851c36846aece7f3092d3c6e441e08ce3a6e91c0d87a21fd2c2ba89a267a683",
	"streamcluster/2":     "7ecfa6460e81ad116da5d120eaf5dbc0f9aa7ac7f7c8014f0276dcb6a3459f0e",
	"streamcluster/4":     "8c95dd5af2e52143132a9a02003a1759786f639b9be1617c8bc2c9a9cd908620",
	"swaptions/1":         "f6b04c6257e30c2bf276ab27f1b6841adacd308086c29ddc56e53373bfde84be",
	"swaptions/2":         "fdfd8ec109554d10d3cf1b7da60c9d40b7a895e593370a3f8846abd6c59fac44",
	"swaptions/4":         "172b769e7abd124b06c7709b03670eb9604948819e47b653723c6f122fe64252",
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
