package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); int(c) < NumCategories; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "category(") {
			t.Errorf("category %d has no name", int(c))
		}
	}
	if got := Category(99).String(); !strings.HasPrefix(got, "category(") {
		t.Errorf("out-of-range category String = %q", got)
	}
}

func TestFlexibleCategories(t *testing.T) {
	for c := Category(0); int(c) < NumCategories; c++ {
		want := c == CatSyncWait || c == CatSchedWait
		if c.Flexible() != want {
			t.Errorf("%v.Flexible() = %v, want %v", c, c.Flexible(), want)
		}
	}
}

func TestOverheadClassification(t *testing.T) {
	if CatChunkWork.Overhead() {
		t.Error("chunk work must not be classified as overhead")
	}
	if CatSeqCode.Overhead() {
		t.Error("sequential code is outside the region, not runtime overhead")
	}
	for _, c := range []Category{CatAltProducer, CatOrigStates, CatCompare, CatSetup, CatStateCopy, CatSyncKernel, CatSyncWait} {
		if !c.Overhead() {
			t.Errorf("%v should be overhead", c)
		}
	}
}

func TestRecordAndAggregates(t *testing.T) {
	tr := New()
	tr.Record(0, CatChunkWork, 0, 100, "chunk0")
	tr.Record(0, CatSyncWait, 100, 150, "")
	tr.Record(1, CatAltProducer, 10, 60, "chunk1")
	if tr.Threads != 2 {
		t.Fatalf("Threads = %d, want 2", tr.Threads)
	}
	if tr.Span != 150 {
		t.Fatalf("Span = %d, want 150", tr.Span)
	}
	by := tr.CyclesByCategory()
	if by[CatChunkWork] != 100 || by[CatSyncWait] != 50 || by[CatAltProducer] != 50 {
		t.Fatalf("CyclesByCategory = %v", by)
	}
	if tr.BusyCycles() != 150 {
		t.Fatalf("BusyCycles = %d, want 150 (waits excluded)", tr.BusyCycles())
	}
}

func TestRecordDropsEmptyIntervals(t *testing.T) {
	tr := New()
	tr.Record(0, CatSetup, 5, 5, "")
	if len(tr.Intervals) != 0 {
		t.Fatal("zero-length interval was recorded")
	}
}

func TestRecordPanicsOnBackwardsInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards interval did not panic")
		}
	}()
	New().Record(0, CatSetup, 10, 5, "")
}

func TestThreadIntervalsSorted(t *testing.T) {
	tr := New()
	tr.Record(0, CatChunkWork, 50, 60, "b")
	tr.Record(0, CatChunkWork, 0, 10, "a")
	tr.Record(1, CatChunkWork, 20, 30, "other")
	ivs := tr.ThreadIntervals(0)
	if len(ivs) != 2 || ivs[0].Tag != "a" || ivs[1].Tag != "b" {
		t.Fatalf("ThreadIntervals(0) = %+v", ivs)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tr := New()
	tr.Record(0, CatChunkWork, 0, 100, "")
	tr.Record(0, CatSetup, 50, 120, "")
	if err := tr.Validate(); err == nil {
		t.Fatal("overlapping intervals passed validation")
	}
}

func TestValidateCatchesBackwardsEdge(t *testing.T) {
	tr := New()
	tr.Record(0, CatChunkWork, 0, 10, "")
	tr.Record(1, CatChunkWork, 0, 10, "")
	tr.AddEdge(EdgeWake, 0, 50, 1, 20)
	if err := tr.Validate(); err == nil {
		t.Fatal("backwards edge passed validation")
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	tr := New()
	tr.Record(0, CatSetup, 0, 10, "")
	tr.Record(0, CatChunkWork, 10, 100, "chunk0")
	tr.Record(1, CatSyncWait, 0, 15, "")
	tr.Record(1, CatChunkWork, 15, 90, "chunk1")
	tr.AddEdge(EdgeSpawn, 0, 10, 1, 15)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestEdgeKindStrings(t *testing.T) {
	kinds := []EdgeKind{EdgeSpawn, EdgeWake, EdgeJoin, EdgeCommit}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate edge kind name %q", s)
		}
		seen[s] = true
	}
}

func TestPropertySpanIsMaxEnd(t *testing.T) {
	f := func(starts []uint16, lens []uint8) bool {
		tr := New()
		var maxEnd int64
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		for i := 0; i < n; i++ {
			s := int64(starts[i])
			e := s + int64(lens[i])
			tr.Record(i, CatChunkWork, s, e, "") // one interval per thread: no overlap
			if e > maxEnd && e > s {
				maxEnd = e
			}
		}
		return tr.Span == maxEnd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCategoryTotalsMatchSum(t *testing.T) {
	f := func(lens []uint8) bool {
		tr := New()
		var want int64
		cursor := int64(0)
		for i, l := range lens {
			d := int64(l)
			cat := Category(i % NumCategories)
			tr.Record(0, cat, cursor, cursor+d, "")
			cursor += d
			want += d
		}
		by := tr.CyclesByCategory()
		var got int64
		for _, v := range by {
			got += v
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
