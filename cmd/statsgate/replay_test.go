package main

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestReplayReleaseKeepsUnreadTail: a source read pulls more into the
// replay window than the view asked for, so when the view wins the bytes
// it has not read yet are still only in the window. release must keep
// them for it; a release that dropped the window whole once handed this
// view its first KB and then "replay window released".
func TestReplayReleaseKeepsUnreadTail(t *testing.T) {
	src := make([]byte, 170_000)
	for i := range src {
		src[i] = 'a' + byte(i%26)
	}
	rr := newReplayReader(bytes.NewReader(src))
	v := rr.view()
	head := make([]byte, 1024)
	if _, err := io.ReadFull(v, head); err != nil {
		t.Fatal(err)
	}
	rr.release(v)
	rest, err := io.ReadAll(v)
	if err != nil {
		t.Fatalf("after release, read %d more bytes, then: %v", len(rest), err)
	}
	if got := append(head, rest...); !bytes.Equal(got, src) {
		t.Fatalf("the released view read %d bytes, not the source's %d", len(got), len(src))
	}
}

// shortReader returns at most step bytes a read, cycling through steps.
type shortReader struct {
	src   []byte
	steps []int
	n     int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if len(r.src) == 0 {
		return 0, io.EOF
	}
	step := r.steps[r.n%len(r.steps)]
	r.n++
	n := copy(p[:min(len(p), step)], r.src)
	r.src = r.src[n:]
	return n, nil
}

// replaySource is a session body of n input lines of varying length, some
// of them blank (whitespace only), which the line index must not count.
func replaySource(n int, seed byte) []byte {
	var b []byte
	x := uint32(seed) + 1
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		switch x >> 28 {
		case 0:
			b = append(b, " \t\r\n"...)
		default:
			for j := 0; j < int(x>>16&0x7FF)+1; j++ {
				b = append(b, 'a'+byte(j%26))
			}
			b = append(b, '\n')
		}
	}
	return b
}

// lineEnds returns the offset just past each non-blank line's newline.
func lineEnds(src []byte) []int64 {
	var ends []int64
	content := false
	for i, c := range src {
		switch c {
		case '\n':
			if content {
				ends = append(ends, int64(i)+1)
			}
			content = false
		case ' ', '\t', '\r':
		default:
			content = true
		}
	}
	return ends
}

// FuzzReplayReader drives a replayReader through random interleavings of
// view reads (1 B to 64 KB buffers), trimToLine, viewAtLine, release,
// Close and killAll over a source that returns short reads, and checks it
// against a model: a view that may still read yields exactly the source
// bytes from its offset, every other view is refused, and the retained
// window holds exactly the source bytes it claims and never starts before
// the last trim cut.
func FuzzReplayReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 40, 2, 0xFF, 2, 0xFF, 3, 2, 2, 0x10, 4, 0, 2, 0xFF, 2, 0xFF, 2, 0xFF})
	f.Add([]byte{0x81, 7, 2, 0xF0, 2, 0xF0, 3, 1, 3, 5, 1, 0, 2, 0x30, 4, 1, 2, 0xFF, 5})
	f.Add([]byte{0x81, 200, 2, 0xFF, 2, 0xFF, 2, 0xFF, 2, 0xFF, 3, 30, 1, 3, 4, 1, 2, 0xFF, 2, 0xFF, 2, 0xFF})
	sizes := []int{1, 2, 7, 100, 1 << 10, 4 << 10, 32 << 10, 64 << 10}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		track, lines, seed := ops[0]&0x80 != 0, int(ops[0]&0x7F)+1, ops[1]
		ops = ops[2:]
		src := replaySource(lines, seed)
		ends := lineEnds(src)
		rr := newReplayReader(&shortReader{src: src, steps: []int{1 << 10, 37, 32 << 10, 5000, 1}})
		if track {
			rr.trackLines()
		}
		type modelView struct {
			v   *replayView
			off int64
		}
		var (
			views    []*modelView
			winner   *modelView
			released bool
			killed   bool
			cut      int64 // the last trim cut
			trimmed  int64 // input lines the trims dropped
		)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		pick := func() *modelView {
			if len(views) == 0 {
				return nil
			}
			return views[next()%len(views)]
		}
		// live: the views that may still read; a trim never cuts past them.
		live := func(mv *modelView) bool {
			return !killed && !mv.v.closed && (!released || mv == winner) && mv.off >= cut
		}
		// readLines: input lines whose newline the source has delivered.
		readLines := func() int64 {
			n := int64(0)
			for n < int64(len(ends)) && ends[n] <= rr.end {
				n++
			}
			return n
		}
		for len(ops) > 0 {
			switch next() % 8 {
			case 0, 7:
				views = append(views, &modelView{v: rr.view()})
			case 1:
				if !track {
					continue
				}
				n := trimmed + int64(next())%(readLines()-trimmed+1)
				off := cut
				if n > trimmed {
					off = ends[n-1]
				}
				views = append(views, &modelView{v: rr.viewAtLine(n), off: off})
			case 2, 6:
				mv := pick()
				if mv == nil {
					continue
				}
				p := make([]byte, sizes[next()%len(sizes)])
				n, err := mv.v.Read(p)
				switch {
				case !live(mv):
					if n != 0 || err == nil {
						t.Fatalf("a view that may not read got %d bytes, %v", n, err)
					}
				case mv.off == int64(len(src)):
					if n != 0 || err != io.EOF {
						t.Fatalf("at the end of the source: %d bytes, %v", n, err)
					}
				case err != nil || n == 0:
					t.Fatalf("a live view at %d of %d read %d bytes, %v", mv.off, len(src), n, err)
				case !bytes.Equal(p[:n], src[mv.off:mv.off+int64(n)]):
					t.Fatalf("a live view at %d read bytes that are not the source's", mv.off)
				default:
					mv.off += int64(n)
				}
			case 3:
				if !track {
					continue
				}
				// The gateway trims to a checkpoint the backend has read
				// past: never beyond a live view's offset.
				limit := readLines()
				for _, mv := range views {
					if live(mv) {
						for limit > trimmed && ends[limit-1] > mv.off {
							limit--
						}
					}
				}
				if limit <= trimmed {
					continue
				}
				n := trimmed + 1 + int64(next())%(limit-trimmed)
				rr.trimToLine(n)
				cut, trimmed = ends[n-1], n
			case 4:
				// Checkpointed sessions never release: their line index
				// needs every byte to land in the window.
				if released || track {
					continue
				}
				if winner = pick(); winner != nil {
					rr.release(winner.v)
					released = true
				}
			case 5:
				if mv := pick(); mv != nil && next()%4 == 0 {
					mv.v.Close()
				} else if next()%8 == 0 {
					rr.killAll()
					killed = true
				}
			}
			if rr.start < cut {
				t.Fatalf("retained bytes start at %d, before the trim cut %d", rr.start, cut)
			}
			var held []byte
			for _, b := range rr.blocks {
				held = append(held, b.bytes()...)
			}
			if !bytes.Equal(held, src[rr.start:rr.end]) {
				t.Fatalf("the window claims bytes %d to %d and holds others", rr.start, rr.end)
			}
			if killed && len(rr.blocks) != 0 {
				t.Fatalf("%d blocks retained after killAll", len(rr.blocks))
			}
		}
		if !killed {
			rr.killAll()
		}
		for _, mv := range views {
			if _, err := mv.v.Read(make([]byte, 1)); !errors.Is(err, errAttemptAborted) {
				t.Fatalf("a read after killAll: %v", err)
			}
		}
	})
}
