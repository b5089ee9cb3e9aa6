// Package dedupstream is a content-defined-chunking deduplication
// pipeline — the large-state benchmark ROADMAP item 3 calls for, and the
// copy-dominated regime speculative-multithreading studies identify as
// the limiting case for speculation payoff.
//
// Each input is a data segment; Update splits it into variable-size
// chunks at gear-hash boundaries, fingerprints each chunk, and looks the
// fingerprint up in a bounded recent-fingerprint table (the state). A hit
// counts the chunk's bytes as deduplicated; a miss admits the
// fingerprint probabilistically — the sampled-index nondeterminism real
// dedup engines use to bound index growth, and this program's source of
// divergence between lineages. Entries expire after TTL segments, which
// is what gives the state its short memory: two lineages that processed
// the same recent segments index (almost) the same recent chunks, no
// matter how they diverged before.
//
// Unlike the other benchmarks, whose states are hundreds of bytes, the
// fingerprint table is hundreds of kilobytes — Clone (a map copy) costs
// more than Update (hashing one segment). State copy dominating body
// work is exactly the regime where the paper's state-forwarding overhead
// category governs the speedup, and it is what makes this benchmark the
// stress case for the StateRecycler/StatePool path.
package dedupstream

import (
	"math"
	"slices"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/memsim"
	"gostats/internal/rng"
)

func init() { bench.Register("dedupstream", func() bench.Benchmark { return New() }) }

// Params sizes the workload.
type Params struct {
	// Segments is the native stream length; SegmentBytes the size of one
	// input segment.
	Segments     int
	SegmentBytes int
	// MinChunk/AvgChunk/MaxChunk parameterize content-defined chunking.
	// AvgChunk must be a power of two (it becomes the boundary mask).
	MinChunk, AvgChunk, MaxChunk int
	// TTL is how many segments a fingerprint stays in the table after it
	// was last seen (the short-memory length, in segments).
	TTL int
	// RecentWindow is how many trailing segments define the
	// recent-fingerprint set Match compares. It should be close to the
	// protocol's lookback so a fresh lineage can rebuild it.
	RecentWindow int
	// AdmitP is the probability a missed fingerprint is admitted to the
	// table (the nondeterminism).
	AdmitP float64
	// DupP is the input generator's probability of re-emitting a recent
	// extent instead of fresh bytes.
	DupP float64
	// MatchJaccard is the minimum Jaccard similarity of two states'
	// recent-fingerprint sets for a commit; EMATol bounds their duplicate
	// -rate estimators.
	MatchJaccard float64
	EMATol       float64
	// NativeSegmentBytes scales the charged (simulated) per-segment cost
	// to the paper's native scale.
	NativeSegmentBytes int64
}

// Default returns the native-scale parameters.
func Default() Params {
	return Params{
		Segments:           900,
		SegmentBytes:       16 << 10,
		MinChunk:           64,
		AvgChunk:           256,
		MaxChunk:           1024,
		TTL:                48,
		RecentWindow:       4,
		AdmitP:             0.9,
		DupP:               0.55,
		MatchJaccard:       0.5,
		EMATol:             0.25,
		NativeSegmentBytes: 2 << 20,
	}
}

// Training returns the autotuning workload: a different stream at ~3/4
// scale.
func Training() Params {
	p := Default()
	p.Segments = p.Segments * 3 / 4
	return p
}

// Segment is one input: a block of stream bytes to deduplicate.
type Segment struct {
	Data []byte `json:"data"`
}

// SegmentStats is the per-segment output: how the segment's bytes split
// into duplicate and unique, and the running duplicate-rate estimate.
type SegmentStats struct {
	Chunks      int     `json:"chunks"`
	DupBytes    int     `json:"dup_bytes"`
	UniqueBytes int     `json:"unique_bytes"`
	DupRate     float64 `json:"dup_rate"`
}

// fpEntry is one insertion-ordered log record; the log is what lets
// expiry walk old entries without ever iterating the map.
type fpEntry struct {
	fp  uint64
	gen uint32
}

// dedupState is the fingerprint table plus its insertion log.
type dedupState struct {
	// table maps chunk fingerprint → generation (segment index) it was
	// last seen. It is the "large state": tens of thousands of entries.
	// It is not encoded: it is exactly the replay of the live log, which
	// DecodeState rebuilds it from, and encoding it would iterate a map.
	table map[uint64]uint32
	// log records insertions in order; head indexes the oldest live
	// entry. Expiry pops from head (lazy deletion — a refreshed
	// fingerprint's stale log records are skipped when popped), so no
	// code path depends on map iteration order. EncodeState writes only
	// the live tail, log[head:], so head is 0 after decode.
	log  []fpEntry
	head int
	// gen counts segments processed by this lineage.
	gen uint32
	// emaDup is the exponentially weighted duplicate-byte fraction.
	emaDup float64
}

// DedupStream is the benchmark implementation.
type DedupStream struct {
	p Params
}

// New builds the native-scale benchmark.
func New() *DedupStream { return NewWithParams(Default()) }

// NewWithParams builds a custom-scale benchmark.
func NewWithParams(p Params) *DedupStream { return &DedupStream{p: p} }

// Name implements engine.Program.
func (d *DedupStream) Name() string { return "dedupstream" }

// Describe implements bench.Benchmark.
func (d *DedupStream) Describe() string {
	return "content-defined chunk dedup with a large expiring fingerprint table (state copy dominates)"
}

// Initial is an empty table sized for the steady state.
func (d *DedupStream) Initial(r *rng.Stream) engine.State { return d.fresh() }

// Fresh is identical: the table rebuilds from recent segments.
func (d *DedupStream) Fresh(r *rng.Stream) engine.State { return d.fresh() }

func (d *DedupStream) fresh() *dedupState {
	return &dedupState{
		table: make(map[uint64]uint32, d.tableCap()),
		log:   make([]fpEntry, 0, d.tableCap()),
	}
}

// tableCap estimates the steady-state entry count: TTL segments' worth
// of admitted chunk fingerprints.
func (d *DedupStream) tableCap() int {
	perSeg := d.p.SegmentBytes / d.p.AvgChunk
	return d.p.TTL * perSeg
}

// FreshInto implements engine.FreshRecycler: rebuild a cold state into a
// retired buffer, reusing its map and log storage.
func (d *DedupStream) FreshInto(dst engine.State, r *rng.Stream) engine.State {
	st, ok := dst.(*dedupState)
	if !ok || st == nil {
		return d.fresh()
	}
	clear(st.table)
	st.log = st.log[:0]
	st.head = 0
	st.gen = 0
	st.emaDup = 0
	return st
}

// gearTable is the content-defined-chunking hash table, filled
// deterministically at package init from a fixed splitmix64 walk.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Update deduplicates one segment against the table.
func (d *DedupStream) Update(stv engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := stv.(*dedupState)
	seg := in.(Segment)
	st.gen++

	mask := uint64(d.p.AvgChunk - 1)
	out := SegmentStats{}
	data := seg.Data
	for start := 0; start < len(data); {
		// Gear-hash content-defined boundary: cut where the rolling hash's
		// low bits vanish, clamped to [MinChunk, MaxChunk]. Boundaries
		// depend only on content, so both lineages chunk a segment
		// identically — only table contents differ.
		end := start + d.p.MaxChunk
		if end > len(data) {
			end = len(data)
		}
		cut := end
		var h uint64
		for i := start; i < end; i++ {
			h = (h << 1) + gearTable[data[i]]
			if i-start >= d.p.MinChunk && h&mask == 0 {
				cut = i + 1
				break
			}
		}
		fp := chunkFP(data[start:cut])
		size := cut - start
		out.Chunks++

		if gen, ok := st.table[fp]; ok && st.gen-gen <= uint32(d.p.TTL) {
			out.DupBytes += size
			// Refresh: the duplicate keeps its fingerprint alive.
			st.table[fp] = st.gen
			st.log = append(st.log, fpEntry{fp: fp, gen: st.gen})
		} else {
			out.UniqueBytes += size
			// Sampled admission — the nondeterminism. Different lineages
			// admit slightly different index subsets, so their tables (and
			// future hit decisions) diverge in the small.
			if r.Bool(d.p.AdmitP) {
				st.table[fp] = st.gen
				st.log = append(st.log, fpEntry{fp: fp, gen: st.gen})
			}
		}
		start = cut
	}

	d.expire(st)

	total := out.DupBytes + out.UniqueBytes
	if total > 0 {
		d.updateEMA(st, float64(out.DupBytes)/float64(total))
	}
	out.DupRate = st.emaDup
	return st, out
}

// updateEMA folds one segment's duplicate fraction into the estimator.
// Weight 0.4 converges from a cold start to within EMATol of a warm
// lineage inside the protocol's lookback (1-0.6^4 ≈ 0.87).
func (d *DedupStream) updateEMA(st *dedupState, frac float64) {
	st.emaDup = float64(0.6*st.emaDup) + float64(0.4*frac)
}

// expire pops expired log entries and deletes table entries that still
// point at the popped generation (a refreshed fingerprint has a newer
// generation and survives; its stale log records are skipped).
func (d *DedupStream) expire(st *dedupState) {
	ttl := uint32(d.p.TTL)
	for st.head < len(st.log) {
		e := st.log[st.head]
		if st.gen-e.gen <= ttl {
			break
		}
		if gen, ok := st.table[e.fp]; ok && gen == e.gen {
			delete(st.table, e.fp)
		}
		st.head++
	}
	// Compact the log once the dead prefix dominates, amortized O(1).
	if st.head > len(st.log)/2 && st.head > 1024 {
		n := copy(st.log, st.log[st.head:])
		st.log = st.log[:n]
		st.head = 0
	}
}

// chunkFP is an FNV-1a-style chunk fingerprint.
func chunkFP(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Clone deep-copies the table and log.
func (d *DedupStream) Clone(stv engine.State) engine.State {
	st := stv.(*dedupState)
	c := &dedupState{
		table:  make(map[uint64]uint32, len(st.table)),
		log:    append(make([]fpEntry, 0, len(st.log)-st.head), st.log[st.head:]...),
		gen:    st.gen,
		emaDup: st.emaDup,
	}
	for k, v := range st.table {
		c.table[k] = v
	}
	return c
}

// CloneInto implements engine.StateRecycler: copy into a retired buffer,
// reusing its map and log storage. Observably identical to Clone.
func (d *DedupStream) CloneInto(dst, src engine.State) engine.State {
	s := src.(*dedupState)
	t, ok := dst.(*dedupState)
	if !ok || t == nil {
		return d.Clone(src)
	}
	clear(t.table)
	for k, v := range s.table {
		t.table[k] = v
	}
	t.log = append(t.log[:0], s.log[s.head:]...)
	t.head = 0
	t.gen = s.gen
	t.emaDup = s.emaDup
	return t
}

// recentScratch is the stack room for one state's recent run in Match:
// twice the most a default-size stream has logged in a RecentWindow of
// four segments (238 records over 900 segments). A longer run spills to
// the heap through append and is counted the same.
const recentScratch = 512

// recent appends to buf the fingerprints logged within the last
// RecentWindow segments, by scanning the log tail (never the map), and
// returns them sorted without duplicates. It writes only buf.
func (d *DedupStream) recent(st *dedupState, buf []uint64) []uint64 {
	win := uint32(d.p.RecentWindow)
	for i := len(st.log) - 1; i >= st.head; i-- {
		e := st.log[i]
		if st.gen-e.gen >= win {
			break
		}
		buf = append(buf, e.fp)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// Match accepts states whose recent-fingerprint sets overlap (Jaccard >=
// MatchJaccard) and whose duplicate-rate estimators agree within EMATol.
// Recency is what makes this sound under the short-memory property: a
// fresh lineage replayed over the lookback window indexes the same
// recent chunks as the original, up to admission sampling. The two sets
// are sorted runs in stack scratch, intersected by one merge walk, so a
// call allocates nothing and keeps nothing: one program serves
// concurrent sessions.
func (d *DedupStream) Match(a, b engine.State) bool {
	sa, sb := a.(*dedupState), b.(*dedupState)
	if math.Abs(sa.emaDup-sb.emaDup) > d.p.EMATol {
		return false
	}
	var bufA, bufB [recentScratch]uint64
	ra, rb := d.recent(sa, bufA[:0]), d.recent(sb, bufB[:0])
	if len(ra) == 0 || len(rb) == 0 {
		return len(ra) == len(rb)
	}
	inter := 0
	for i, j := 0, 0; i < len(ra) && j < len(rb); {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(ra) + len(rb) - inter
	return float64(inter)/float64(union) >= d.p.MatchJaccard
}

// StateBytes charges the native-scale serialized table (Table I
// convention: the state the runtime forwards). ~12 bytes per entry at
// native chunking of the native segment size.
func (d *DedupStream) StateBytes() int64 {
	perSeg := d.p.NativeSegmentBytes / int64(d.p.AvgChunk)
	return int64(d.p.TTL) * perSeg * 12
}

// dedupProfile models a hash-dominated kernel walking a multi-megabyte
// index: poor LLC locality on the table, streaming loads on the segment.
var dedupProfile = memsim.AccessProfile{
	Name:    "dedupstream.chunk",
	MemFrac: 0.52,
	Regions: []memsim.RegionRef{
		{Name: "dedupstream.table", Bytes: 96 << 20, Frac: 0.42},
		{Name: "dedupstream.segment", Bytes: 2 << 20, Frac: 0.50},
		{Name: "dedupstream.log", Bytes: 24 << 20, Frac: 0.08},
	},
	BranchFrac:  0.14,
	BranchBias:  0.82,
	BranchSites: 24,
}

// UpdateCost charges the native segment's rolling hash plus one index
// probe per chunk; body work is mostly serial (the rolling hash carries
// a loop dependence), which is what makes state copies, not compute,
// the bottleneck under speculation.
func (d *DedupStream) UpdateCost(in engine.Input, stv engine.State) engine.UpdateWork {
	instr := d.p.NativeSegmentBytes * 9
	serial := int64(float64(instr) * 0.55)
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: serial, Access: &dedupProfile},
		Parallel:    machine.Work{Instr: instr - serial, Access: &dedupProfile},
		Grain:       4,
		ShareJitter: 0.08,
	}
}

// CompareCost covers two recent-set scans and the intersection.
func (d *DedupStream) CompareCost() machine.Work {
	return machine.Work{Instr: 2_400_000, Access: &dedupProfile}
}

// SetupWork models index allocation.
func (d *DedupStream) SetupWork(chunks int) machine.Work {
	return machine.Work{Instr: 900_000 + int64(chunks)*120_000}
}

// TeardownWork frees it.
func (d *DedupStream) TeardownWork(chunks int) machine.Work {
	return machine.Work{Instr: 250_000 + int64(chunks)*30_000}
}

// PreRegionWork is container open and manifest load.
func (d *DedupStream) PreRegionWork() machine.Work { return machine.Work{Instr: 30_000_000} }

// PostRegionWork is recipe serialization.
func (d *DedupStream) PostRegionWork() machine.Work { return machine.Work{Instr: 18_000_000} }

// MaxInnerWidth: chunk fingerprinting within a segment parallelizes a
// little once boundaries are known; the boundary scan itself does not.
func (d *DedupStream) MaxInnerWidth() int { return 4 }

// Inputs generates the native segment stream: extents drawn fresh or
// re-emitted from a recency-biased pool, so duplicate chunks cluster in
// time — the locality that gives the fingerprint table its short memory.
func (d *DedupStream) Inputs(r *rng.Stream) []engine.Input {
	return d.inputs(r.Derive("native"), d.p.Segments)
}

// TrainingInputs is a different stream at ~3/4 scale.
func (d *DedupStream) TrainingInputs(r *rng.Stream) []engine.Input {
	return d.inputs(r.Derive("training"), d.p.Segments*3/4)
}

func (d *DedupStream) inputs(r *rng.Stream, segments int) []engine.Input {
	// The extent pool holds recently emitted byte runs; re-emission
	// prefers young extents (recency bias) so duplicates are mostly
	// short-range.
	const poolCap = 512
	const recentBias = 96
	var pool [][]byte
	ins := make([]engine.Input, segments)
	for s := 0; s < segments; s++ {
		data := make([]byte, 0, d.p.SegmentBytes)
		for len(data) < d.p.SegmentBytes {
			if len(pool) > 0 && r.Bool(d.p.DupP) {
				// Re-emit a recent extent verbatim.
				window := len(pool)
				if window > recentBias {
					window = recentBias
				}
				ext := pool[len(pool)-1-r.Intn(window)]
				data = append(data, ext...)
				continue
			}
			// Fresh extent: 128..640 random bytes.
			ext := make([]byte, 128+r.Intn(513))
			for i := 0; i < len(ext); i += 8 {
				v := r.Uint64()
				for j := 0; j < 8 && i+j < len(ext); j++ {
					ext[i+j] = byte(v >> (8 * j))
				}
			}
			pool = append(pool, ext)
			if len(pool) > poolCap {
				pool = pool[len(pool)-poolCap:]
			}
			data = append(data, ext...)
		}
		ins[s] = Segment{Data: data[:d.p.SegmentBytes]}
	}
	return ins
}

// Quality is the mean duplicate-byte fraction detected over the final
// quarter of the stream: higher means the index caught more redundancy.
func (d *DedupStream) Quality(outputs []engine.Output) float64 {
	if len(outputs) == 0 {
		return math.Inf(-1)
	}
	start := len(outputs) * 3 / 4
	var dup, total float64
	for _, o := range outputs[start:] {
		ss := o.(SegmentStats)
		dup += float64(ss.DupBytes)
		total += float64(ss.DupBytes + ss.UniqueBytes)
	}
	if total == 0 {
		return 0
	}
	return dup / total
}
