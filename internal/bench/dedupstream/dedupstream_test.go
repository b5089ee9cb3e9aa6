package dedupstream

import (
	"math"
	"slices"
	"testing"

	"gostats/internal/engine"
	"gostats/internal/rng"
)

// refMatch is Match as two hash sets: the same EMATol pre-check, the same
// empty-set rule and the same Jaccard threshold, with the intersection
// counted by map lookups. jaccard reports whether the verdict came from
// the Jaccard test rather than from either rule before it.
func refMatch(d *DedupStream, a, b *dedupState) (match, jaccard bool) {
	if math.Abs(a.emaDup-b.emaDup) > d.p.EMATol {
		return false, false
	}
	ra, rb := refRecent(d, a), refRecent(d, b)
	if len(ra) == 0 || len(rb) == 0 {
		return len(ra) == len(rb), false
	}
	inter := 0
	for fp := range ra {
		if _, ok := rb[fp]; ok {
			inter++
		}
	}
	return float64(inter)/float64(len(ra)+len(rb)-inter) >= d.p.MatchJaccard, true
}

func refRecent(d *DedupStream, st *dedupState) map[uint64]struct{} {
	set := map[uint64]struct{}{}
	for _, e := range recentRecords(d, st) {
		set[e.fp] = struct{}{}
	}
	return set
}

// recentRecords is the log tail Match reads: every record, duplicates
// included, logged within the last RecentWindow segments.
func recentRecords(d *DedupStream, st *dedupState) []fpEntry {
	i := len(st.log)
	for i > st.head && st.gen-st.log[i-1].gen < uint32(d.p.RecentWindow) {
		i--
	}
	return st.log[i:]
}

// checker compares Match with refMatch on state pairs and tallies what
// the pairs exercised.
type checker struct {
	t *testing.T
	d *DedupStream
	// pairs counts comparisons; accepted and rejected count the verdicts
	// the Jaccard test gave; dupWindows counts states whose recent window
	// holds a fingerprint twice; spilled counts states whose recent window
	// outgrows the stack scratch.
	pairs, accepted, rejected, dupWindows, spilled int
}

func (c *checker) log() {
	c.t.Logf("%d pairs: the Jaccard test accepted %d and rejected %d; %d windows held a duplicate, %d spilled",
		c.pairs, c.accepted, c.rejected, c.dupWindows, c.spilled)
}

func (c *checker) check(what string, a, b engine.State) {
	c.t.Helper()
	sa, sb := a.(*dedupState), b.(*dedupState)
	logA, logB := slices.Clone(sa.log), slices.Clone(sb.log)
	headA, headB := sa.head, sb.head
	want, jaccard := refMatch(c.d, sa, sb)
	if got := c.d.Match(a, b); got != want {
		c.t.Errorf("%s: Match = %v, the map reference says %v", what, got, want)
	}
	if got := c.d.Match(b, a); got != want {
		c.t.Errorf("%s: Match reversed = %v, the map reference says %v", what, got, want)
	}
	if !slices.Equal(sa.log, logA) || !slices.Equal(sb.log, logB) || sa.head != headA || sb.head != headB {
		c.t.Fatalf("%s: Match wrote a state's log", what)
	}
	c.pairs++
	switch {
	case jaccard && want:
		c.accepted++
	case jaccard:
		c.rejected++
	}
	for _, st := range []*dedupState{sa, sb} {
		recs := recentRecords(c.d, st)
		if len(refRecent(c.d, st)) < len(recs) {
			c.dupWindows++
		}
		if len(recs) > recentScratch {
			c.spilled++
		}
	}
}

// lineages runs the original lineage over the first n inputs and, at every
// boundary, a fresh lineage replaying the lookback window before it — the
// pair the commit frontier compares — and checks Match on that pair, on the
// replay against the previous boundary's original, and on the original
// against its own clone.
func lineages(c *checker, n, every, lookback int) {
	d := c.d
	ins := d.Inputs(rng.New(11))[:n]
	orig, r := d.Initial(rng.New(1)), rng.New(2)
	var prev engine.State
	for k, in := range ins {
		orig, _ = d.Update(orig, in, r)
		if (k+1)%every != 0 || k+1 < lookback {
			continue
		}
		alt, ra := d.Fresh(rng.New(3)), rng.New(uint64(100+k))
		for _, rin := range ins[k+1-lookback : k+1] {
			alt, _ = d.Update(alt, rin, ra)
		}
		c.check("replay", orig, alt)
		c.check("self", orig, d.Clone(orig))
		if prev != nil {
			c.check("stale", prev, alt)
		}
		prev = d.Clone(orig)
	}
}

func TestMatchAgreesWithMapReference(t *testing.T) {
	c := &checker{t: t, d: New()}
	lineages(c, 240, 8, 4)
	lineages(c, 240, 8, 2)
	c.log()
	if c.accepted == 0 || c.rejected == 0 {
		t.Errorf("the Jaccard test accepted %d and rejected %d of %d pairs: both verdicts must be exercised", c.accepted, c.rejected, c.pairs)
	}
	if c.dupWindows == 0 {
		t.Errorf("no recent window held a refreshed fingerprint twice in %d pairs", c.pairs)
	}
}

func TestMatchEmptyRecentSets(t *testing.T) {
	d := New()
	c := &checker{t: t, d: d}
	warm, r := d.Initial(rng.New(1)), rng.New(2)
	for _, in := range d.Inputs(rng.New(11))[:12] {
		warm, _ = d.Update(warm, in, r)
	}
	// RecentWindow empty segments leave the log and the estimator as they
	// were but empty the recent window.
	quiet := d.Clone(warm)
	for range d.p.RecentWindow {
		quiet, _ = d.Update(quiet, Segment{}, r)
	}
	st := quiet.(*dedupState)
	if len(st.log) == st.head || len(recentRecords(d, st)) != 0 {
		t.Fatalf("quiet state has %d live records, %d recent; want some and none", len(st.log)-st.head, len(recentRecords(d, st)))
	}
	empty := d.Fresh(rng.New(3))
	c.check("quiet vs warm", quiet, warm)
	if d.Match(quiet, warm) {
		t.Error("a state with no recent fingerprints matches one with some")
	}
	c.check("quiet vs quiet", quiet, d.Clone(quiet))
	if !d.Match(quiet, d.Clone(quiet)) {
		t.Error("two states with no recent fingerprints do not match")
	}
	c.check("fresh vs fresh", empty, d.Fresh(rng.New(4)))
	if !d.Match(empty, d.Fresh(rng.New(4))) {
		t.Error("two fresh states do not match")
	}
}

func TestMatchEMATolRejects(t *testing.T) {
	d := New()
	c := &checker{t: t, d: d}
	s, r := d.Initial(rng.New(1)), rng.New(2)
	for _, in := range d.Inputs(rng.New(11))[:12] {
		s, _ = d.Update(s, in, r)
	}
	far := d.Clone(s)
	far.(*dedupState).emaDup += d.p.EMATol * 1.01
	c.check("ema apart", s, far)
	if d.Match(s, far) {
		t.Error("states whose duplicate-rate estimators differ by more than EMATol match")
	}
	near := d.Clone(s)
	near.(*dedupState).emaDup += d.p.EMATol * 0.99
	c.check("ema close", s, near)
	if !d.Match(s, near) {
		t.Error("identical recent sets with estimators inside EMATol do not match")
	}
}

func TestMatchSpillsPastStackScratch(t *testing.T) {
	p := Default()
	p.RecentWindow = p.TTL
	c := &checker{t: t, d: NewWithParams(p)}
	lineages(c, 160, 16, 4)
	lineages(c, 160, 16, p.TTL)
	c.log()
	if c.spilled == 0 {
		t.Fatalf("no recent window outgrew the %d-entry stack scratch", recentScratch)
	}
	if c.accepted == 0 || c.rejected == 0 {
		t.Errorf("the Jaccard test accepted %d and rejected %d of %d pairs: both verdicts must be exercised", c.accepted, c.rejected, c.pairs)
	}
}

// TestMatchAtThreshold builds recent sets whose Jaccard similarity sits
// exactly on MatchJaccard and one fingerprint below it, each window with a
// refreshed record, so an off-by-one in the intersection or the union
// flips a verdict.
func TestMatchAtThreshold(t *testing.T) {
	d := New()
	c := &checker{t: t, d: d}
	state := func(fps ...uint64) *dedupState {
		st := &dedupState{gen: 10}
		for _, fp := range fps {
			st.log = append(st.log, fpEntry{fp: fp, gen: st.gen})
		}
		return st
	}
	// {1,2,3} and {2,3,4}: 2 shared of 4.
	at, other := state(3, 1, 2, 3), state(4, 2, 2, 3)
	c.check("on the threshold", at, other)
	if !d.Match(at, other) {
		t.Errorf("Jaccard 2/4 does not reach MatchJaccard %v", d.p.MatchJaccard)
	}
	// {1,2,3} and {2,3,4,5}: 2 shared of 5.
	below := state(5, 2, 4, 3, 2)
	c.check("below the threshold", at, below)
	if d.Match(at, below) {
		t.Errorf("Jaccard 2/5 reaches MatchJaccard %v", d.p.MatchJaccard)
	}
}
