package freelist

import (
	"runtime"
	"testing"
)

// TestListKeysBoundAndCollections: Get returns only a value put back
// under its key, the list holds at most Max values, and what it holds
// outlives garbage collections, which empty a sync.Pool.
func TestListKeysBoundAndCollections(t *testing.T) {
	var l List[int]
	if l.Get(0) != nil {
		t.Fatal("an empty list returned a value")
	}
	vals := make([]*int, Max+1)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		l.Put(i%2, vals[i])
	}
	if l.Len() != Max {
		t.Fatalf("Len = %d after %d puts, want Max = %d", l.Len(), len(vals), Max)
	}
	runtime.GC()
	runtime.GC()
	seen := map[*int]bool{}
	for key := 0; key < 2; key++ {
		for v := l.Get(key); v != nil; v = l.Get(key) {
			if *v%2 != key || seen[v] {
				t.Fatalf("Get(%d) returned value %d, or one it returned before", key, *v)
			}
			seen[v] = true
		}
	}
	if len(seen) != Max || seen[vals[Max]] || l.Len() != 0 {
		t.Fatalf("got back %d values (the one put beyond Max among them: %t), %d left; want the first %d and none left",
			len(seen), seen[vals[Max]], l.Len(), Max)
	}
	if l.Get(2) != nil {
		t.Fatal("Get returned a value for a key nothing was put under")
	}
}
