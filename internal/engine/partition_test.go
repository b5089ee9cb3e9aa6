package engine_test

import (
	"testing"
	"testing/quick"

	"gostats/internal/engine"
)

// FuzzPartition checks the chunk partitioner's invariants over arbitrary
// sizes: full coverage, contiguity, and near-equal sizes.
func FuzzPartition(f *testing.F) {
	f.Add(10, 3)
	f.Add(1, 1)
	f.Add(512, 28)
	f.Fuzz(func(t *testing.T, n, k int) {
		if n < 1 || n > 1_000_000 || k < 1 || k > 1_000_000 {
			return
		}
		b := engine.Partition(n, k)
		prev := 0
		minSz, maxSz := n+1, 0
		for _, bb := range b {
			if bb[0] != prev || bb[1] <= bb[0] {
				t.Fatalf("engine.Partition(%d,%d) not contiguous: %v", n, k, b)
			}
			sz := bb[1] - bb[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = bb[1]
		}
		if prev != n {
			t.Fatalf("engine.Partition(%d,%d) covers %d", n, k, prev)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("engine.Partition(%d,%d) uneven: %d..%d", n, k, minSz, maxSz)
		}
	})
}

func TestPartitionProperties(t *testing.T) {
	f := func(n16, k8 uint8) bool {
		n := int(n16) + 1
		k := int(k8)%(n+2) + 1
		b := engine.Partition(n, k)
		if len(b) > n || len(b) < 1 {
			return false
		}
		prev := 0
		minSz, maxSz := n+1, 0
		for _, bb := range b {
			if bb[0] != prev || bb[1] <= bb[0] {
				return false
			}
			sz := bb[1] - bb[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = bb[1]
		}
		return prev == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
