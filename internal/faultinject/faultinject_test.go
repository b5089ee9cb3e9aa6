package faultinject_test

import (
	"reflect"
	"strings"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/bench/trackutil"
	"gostats/internal/engine"
	"gostats/internal/faultinject"
	"gostats/internal/rng"
)

func TestInjectFiresOnPlannedAttemptsOnly(t *testing.T) {
	prog, err := bench.New("facetrack")
	if err != nil {
		t.Fatal(err)
	}
	fp := faultinject.New(
		faultinject.Fault{Site: engine.SiteBody, Chunk: 3, Kind: faultinject.Panic, Attempts: 2},
	).Wrap(prog)

	// Wrong site, wrong chunk: nothing fires.
	fp.Inject(engine.SiteOrigStates, 3, 0, nil)
	fp.Inject(engine.SiteBody, 4, 0, nil)
	// Attempt beyond the budget: nothing fires.
	fp.Inject(engine.SiteBody, 3, 2, nil)
	if fp.Fired() != 0 {
		t.Fatalf("injections fired off-plan: %d", fp.Fired())
	}

	for attempt := 0; attempt < 2; attempt++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("attempt %d: planned panic did not fire", attempt)
				}
				if !strings.Contains(r.(string), "planned panic") {
					t.Fatalf("unexpected panic value: %v", r)
				}
			}()
			fp.Inject(engine.SiteBody, 3, attempt, nil)
		}()
	}
	if fp.Panics.Load() != 2 {
		t.Fatalf("want 2 fired panics, got %d", fp.Panics.Load())
	}
}

func TestCorruptReplacesStateDeterministically(t *testing.T) {
	prog, err := bench.New("facetrack")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.New(
		faultinject.Fault{Site: engine.SiteAltProducer, Chunk: 2, Kind: faultinject.Corrupt},
	)
	orig := prog.Initial(rng.New(7))
	s1 := plan.Wrap(prog).Inject(engine.SiteAltProducer, 2, 0, orig)
	s2 := plan.Wrap(prog).Inject(engine.SiteAltProducer, 2, 0, orig)
	// Compare logical content: Cloud carries a process-global region ID
	// (allocation order), which is identity, not state.
	c1, c2, co := s1.(*trackutil.Cloud), s2.(*trackutil.Cloud), orig.(*trackutil.Cloud)
	if reflect.DeepEqual(c1.P, co.P) {
		t.Fatal("corruption left the state untouched")
	}
	if !reflect.DeepEqual(c1.P, c2.P) || !reflect.DeepEqual(c1.W, c2.W) || c1.Cold != c2.Cold {
		t.Fatal("two corruptions of the same chunk differ (must be deterministic)")
	}
	// Nil state (a site that carries none) passes through un-corrupted.
	if got := plan.Wrap(prog).Inject(engine.SiteAltProducer, 2, 0, nil); got != nil {
		t.Fatalf("nil state corrupted into %v", got)
	}
	// Retry attempts see no injection (Attempts defaults to 1).
	if got := plan.Wrap(prog).Inject(engine.SiteAltProducer, 2, 1, orig); !reflect.DeepEqual(got, orig) {
		t.Fatal("corruption fired on a retry attempt")
	}
}

func TestNewRejectsUncatchableCorruption(t *testing.T) {
	for _, f := range []faultinject.Fault{
		{Site: engine.SiteBody, Chunk: 2, Kind: faultinject.Corrupt},
		{Site: engine.SiteAltProducer, Chunk: 0, Kind: faultinject.Corrupt},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted uncatchable corruption %+v", f)
				}
			}()
			faultinject.New(f)
		}()
	}
}
