package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec: Parse never panics, and a spec it accepts, marshalled
// and parsed again, generates the same sessions.
func FuzzParseSpec(f *testing.F) {
	seed, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"t","seed":1,"sessions":10,
	  "arrival":{"dist":"exponential","mean":"1ms"},
	  "duration":{"dist":"gamma","mean":"250ms","shape":2},
	  "length":{"dist":"poisson","lambda":50},
	  "mix":[{"benchmark":"facetrack","weight":3},{"benchmark":"dedupstream","weight":1}],
	  "modulators":[{"kind":"diurnal","period":"20ms","depth":0.6},
	    {"kind":"onoff","on_mean":"8ms","off_mean":"4ms","off_factor":0.2}]}`))
	f.Add([]byte(`{"name":"d","sessions":3,"arrival":{"dist":"exponential","mean":1},"mix":[{"benchmark":"a"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parsing a marshalled spec: %v\n%s", err, out)
		}
		if !cheapToGenerate(s) {
			return
		}
		if a, b := generated(t, s), generated(t, again); !reflect.DeepEqual(a, b) {
			t.Fatalf("marshal→parse changed the generated sessions:\n%+v\n%+v", a, b)
		}
	})
}

// cheapToGenerate bounds what one fuzz input may cost Generate: it is
// linear in Sessions, a poisson draw is linear in its lambda, and an
// onoff modulator takes one step per phase across the virtual time the
// arrivals span.
func cheapToGenerate(s *Spec) bool {
	if s.Sessions > 64 {
		return false
	}
	for _, d := range []DistSpec{s.Arrival, s.Length} {
		switch {
		case float64(d.Mean) > 1e8,
			d.Dist == "poisson" && d.Lambda > 1e4:
			return false
		}
	}
	for _, m := range s.Modulators {
		if m.Kind == "onoff" && (float64(m.OnMean) < 1e6 || float64(m.OffMean) < 1e6) {
			return false
		}
	}
	return true
}

// generated is the sessions Generate makes of s.
func generated(t *testing.T, s *Spec) []Session {
	t.Helper()
	tr, err := Generate(s)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr.Sessions
}
