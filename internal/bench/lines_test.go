package bench

import (
	"errors"
	"strings"
	"testing"
)

func TestLineScannerReadsBoundedLines(t *testing.T) {
	in := "alpha\n" + strings.Repeat("b", 32) + "\n\ngamma\n"
	sc := NewLineScanner(strings.NewReader(in), 32, nil)
	var got []string
	for sc.Scan() {
		got = append(got, string(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("clean input errored: %v", err)
	}
	want := []string{"alpha", strings.Repeat("b", 32), "", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("scanned %d lines, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i+1, got[i], want[i])
		}
	}
	if sc.Line() != 4 {
		t.Fatalf("Line() = %d, want 4", sc.Line())
	}
}

func TestLineScannerRejectsOversizedLine(t *testing.T) {
	// A buffer with more room than the limit must not raise it.
	for _, buf := range [][]byte{nil, make([]byte, 0, LineBuffer)} {
		in := "ok\n" + strings.Repeat("x", 33) + "\nnever-reached\n"
		sc := NewLineScanner(strings.NewReader(in), 32, buf)
		if !sc.Scan() || string(sc.Bytes()) != "ok" {
			t.Fatal("first line did not scan")
		}
		if sc.Scan() {
			t.Fatalf("oversized line scanned (buffer of %d): %q", cap(buf), sc.Bytes())
		}
		err := sc.Err()
		if !errors.Is(err, ErrLineTooLong) {
			t.Fatalf("want ErrLineTooLong, got %v", err)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("error does not locate the offending line: %v", err)
		}
		// The scanner stays stopped.
		if sc.Scan() {
			t.Fatal("scanner resumed after a terminal error")
		}
	}
}

func TestLineScannerDefaultLimit(t *testing.T) {
	long := strings.Repeat("y", DefaultMaxLine+1)
	sc := NewLineScanner(strings.NewReader(long), 0, nil)
	if sc.Scan() {
		t.Fatal("line beyond DefaultMaxLine scanned")
	}
	if !errors.Is(sc.Err(), ErrLineTooLong) {
		t.Fatalf("want ErrLineTooLong, got %v", sc.Err())
	}
}
