package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// timelineGlyphs maps categories to single characters for the ASCII
// timeline. Waits render as dots so computation stands out.
var timelineGlyphs = [NumCategories]byte{
	CatChunkWork:   'W',
	CatAltProducer: 'A',
	CatOrigStates:  'O',
	CatCompare:     'C',
	CatSetup:       'U',
	CatStateCopy:   'Y',
	CatSyncKernel:  'K',
	CatSyncWait:    '.',
	CatSchedWait:   ',',
	CatSeqCode:     'Q',
	CatReexec:      'R',
	CatSpawn:       's',
}

// RenderTimeline writes a Gantt-style view of the trace: one row per
// thread, time bucketed into width columns, each cell showing the
// category that occupied most of that bucket. It is the visual
// counterpart of the paper's Fig. 5 execution diagrams.
func (t *Trace) RenderTimeline(w io.Writer, width int) {
	if width <= 0 {
		width = 100
	}
	if t.Span == 0 || t.Threads == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	bucket := float64(t.Span) / float64(width)
	fmt.Fprintf(w, "timeline: %d threads, %d cycles, %c per ~%.0f cycles\n",
		t.Threads, t.Span, '1', bucket)

	// Order rows by first activity so the spawn cascade reads top-down.
	firstAct := make([]int64, t.Threads)
	for i := range firstAct {
		firstAct[i] = t.Span + 1
	}
	for _, iv := range t.Intervals {
		if iv.Start < firstAct[iv.Thread] {
			firstAct[iv.Thread] = iv.Start
		}
	}
	order := make([]int, t.Threads)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return firstAct[order[a]] < firstAct[order[b]] })

	for _, th := range order {
		row := make([]byte, width)
		occupancy := make([]float64, width)
		for i := range row {
			row[i] = ' '
		}
		// Dominant category per bucket: later-painted categories win only
		// with more coverage.
		cover := make([]map[Category]float64, 0) // lazy per bucket below
		_ = cover
		perBucket := make([]map[Category]float64, width)
		for _, iv := range t.Intervals {
			if iv.Thread != th {
				continue
			}
			b0 := int(float64(iv.Start) / bucket)
			b1 := int(float64(iv.End) / bucket)
			if b1 >= width {
				b1 = width - 1
			}
			for b := b0; b <= b1; b++ {
				lo := float64(float64(b) * bucket)
				hi := lo + bucket
				s, e := float64(iv.Start), float64(iv.End)
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				if e <= s {
					continue
				}
				if perBucket[b] == nil {
					perBucket[b] = map[Category]float64{}
				}
				perBucket[b][iv.Cat] += e - s
			}
		}
		for b, m := range perBucket {
			var best Category
			bestV := -1.0
			// Deterministic iteration: by category index.
			for c := Category(0); int(c) < NumCategories; c++ {
				if v, ok := m[c]; ok && v > bestV {
					best, bestV = c, v
				}
			}
			if bestV > 0 {
				row[b] = timelineGlyphs[best]
				occupancy[b] = bestV
			}
		}
		fmt.Fprintf(w, "  t%-3d |%s|\n", th, string(row))
	}
	fmt.Fprint(w, "  legend:")
	for c := Category(0); int(c) < NumCategories; c++ {
		fmt.Fprintf(w, " %c=%s", timelineGlyphs[c], c)
	}
	fmt.Fprintln(w)
}

// TimelineString is RenderTimeline into a string.
func (t *Trace) TimelineString(width int) string {
	var sb strings.Builder
	t.RenderTimeline(&sb, width)
	return sb.String()
}
