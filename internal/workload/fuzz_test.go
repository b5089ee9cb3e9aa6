package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadTrace: ReadTrace never panics, and a trace it accepts writes
// back to bytes that read to an equal Trace.
func FuzzReadTrace(f *testing.F) {
	var gen bytes.Buffer
	tr, err := Generate(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	tr.Sessions = tr.Sessions[:4]
	if _, err := tr.WriteTo(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())
	f.Add([]byte(`{"trace":"t","seed":1,"sessions":2}
{"seq":0,"at_ns":0,"benchmark":"a","inputs":5}

{"seq":1,"at_ns":0,"benchmark":"b","inputs":3,"seed":9}
`))
	f.Add([]byte(`{"trace":"t","seed":1,"sessions":-1}`))
	f.Add([]byte(`{"trace":"t","sessions":1}` + "\n" + `{"seq":0,"at_ns":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON escaping can grow a line up to sixfold on the way back
		// out; keep the rewrite under ReadTrace's 1 MB line limit.
		if len(data) > 128<<10 {
			return
		}
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("write→read changed the trace:\n%+v\n%+v", tr, again)
		}
	})
}

// FuzzParseSpec: Parse never panics, and a spec it accepts, marshalled
// and parsed again, generates a byte-identical trace.
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
		a, b := traceBytes(t, s), traceBytes(t, again)
		if !bytes.Equal(a, b) {
			t.Fatalf("marshal→parse changed the generated trace:\n%s\n%s", a, b)
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

func traceBytes(t *testing.T, s *Spec) []byte {
	t.Helper()
	tr, err := Generate(s)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
