package trace

import "testing"

// FuzzRecordTimeline hardens the timeline renderer against arbitrary
// interval patterns.
func FuzzRecordTimeline(f *testing.F) {
	f.Add(uint8(3), uint16(100), uint16(50), uint8(2))
	f.Fuzz(func(t *testing.T, nIv uint8, start, length uint16, catRaw uint8) {
		tr := New()
		cursor := int64(start)
		for i := 0; i < int(nIv%12); i++ {
			cat := Category(int(catRaw) % NumCategories)
			end := cursor + int64(length%500)
			tr.Record(i%3, cat, cursor, end, "f")
			cursor = end + 1
		}
		_ = tr.TimelineString(int(length%120) + 1)
	})
}
