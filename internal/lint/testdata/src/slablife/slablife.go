// Package slablife exercises the slablife analyzer: uses and
// re-releases of pooled buffers after they were handed back to their
// recycler, plus the clean shapes (use-before-release, rebind,
// mutually exclusive branches) that must not be flagged.
package slablife

// Pool mirrors the engine's StatePool: Release retires
// its argument's buffers into a free list.
type Pool struct {
	free [][]byte
}

func (p *Pool) Release(b []byte) {
	p.free = append(p.free, b)
}

// --- flagged shapes ---

// UseAfterRelease reads a buffer whose storage is already on the free
// list.
func UseAfterRelease(p *Pool, buf []byte) byte {
	p.Release(buf)
	return buf[0] // want `buf used after being released to its pool`
}

// DoubleRelease puts the same buffer on the free list twice.
func DoubleRelease(p *Pool, buf []byte) {
	p.Release(buf)
	p.Release(buf) // want `buf released twice`
}

// WriteAfterRelease scribbles on a retired buffer inside the same
// branch as the release.
func WriteAfterRelease(p *Pool, buf []byte, done bool) {
	if done {
		p.Release(buf)
		buf[0] = 0 // want `buf used after being released to its pool`
	}
}

// --- clean shapes ---

// ReleaseLast reads everything it needs before releasing.
func ReleaseLast(p *Pool, buf []byte) int {
	n := len(buf)
	p.Release(buf)
	return n
}

// ReleaseAndRebind re-points the name at a fresh buffer: the retired
// storage is no longer reachable through it.
func ReleaseAndRebind(p *Pool, buf []byte) byte {
	p.Release(buf)
	buf = make([]byte, 4)
	return buf[0]
}

// BranchRelease releases on two mutually exclusive paths — the fatal
// branch returns, so the fall-through release is the only one live.
func BranchRelease(p *Pool, buf []byte, fatal bool) byte {
	if fatal {
		p.Release(buf)
		return 0
	}
	b := buf[0]
	p.Release(buf)
	return b
}
