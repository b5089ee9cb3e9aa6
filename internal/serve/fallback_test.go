package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/cluster"
)

// TestDecodeFallbackCounted follows a session's lines to the decoder
// that takes them. Canonical lines, and canonical lines behind the
// padding JSON allows around a value, are read by the codec's cursor and
// leave serve/counter[decode_fallback_lines] alone; one line with a
// space inside it goes to encoding/json and moves it by one. All three
// sessions answer with the same bytes.
func TestDecodeFallbackCounted(t *testing.T) {
	ts := httptest.NewServer(New(baseConfig(), Options{}).Handler())
	defer ts.Close()
	fallbacks := func() int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		page, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		bm := cluster.ParseMetrics(string(page))
		n, ok := bm.Values["serve/counter[decode_fallback_lines]"]
		if _, gauges := bm.Values["serve/gauge[max_sessions]"]; !ok || !gauges || uint64(n) != bench.FallbackLines() {
			t.Fatalf("/metrics parsed to decode_fallback_lines=%d (present: %v, gauges after it: %v), the process counts %d\n%s",
				n, ok, gauges, bench.FallbackLines(), page)
		}
		return n
	}

	const name = "streamcluster"
	body := ndjsonBody(t, name, sessionInputs(t, name, 40))
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var padded, spaced bytes.Buffer
	for i, l := range lines {
		padded.WriteString(" \t")
		padded.Write(l)
		padded.WriteString("\t \r\n")
		if i == 5 {
			l = bytes.Replace(l, []byte(":"), []byte(": "), 1)
		}
		spaced.Write(l)
		spaced.WriteByte('\n')
	}

	before := fallbacks()
	want, _ := runSession(t, ts.URL, name, body)
	if d := fallbacks() - before; d != 0 {
		t.Errorf("a canonical session took the encoding/json fallback for %d lines", d)
	}
	for _, c := range []struct {
		what string
		body []byte
		fell int64
	}{
		{"padded", padded.Bytes(), 0},
		{"with one spaced line", spaced.Bytes(), 1},
	} {
		before = fallbacks()
		got, tr := runSession(t, ts.URL, name, c.body)
		if !tr.Done || !slices.Equal(got, want) {
			t.Errorf("session %s: outputs differ from the canonical session's (trailer %+v)", c.what, tr)
		}
		if d := fallbacks() - before; d != c.fell {
			t.Errorf("session %s: %d lines took the encoding/json fallback, want %d", c.what, d, c.fell)
		}
	}
}
