package cluster

import (
	"fmt"
	"sync"
)

// Health is a backend's routability state as tracked by the Registry.
type Health int

const (
	// Ready means the last /readyz probe succeeded: route sessions here.
	Ready Health = iota
	// Draining means /readyz reports the backend is shutting down:
	// in-flight sessions finish, new ones must route away.
	Draining
	// Down means consecutive probe failures crossed the gateway's
	// threshold: the process is unreachable or dead.
	Down
)

// String renders the health state for /v1/backends and logs.
func (h Health) String() string {
	switch h {
	case Ready:
		return "ready"
	case Draining:
		return "draining"
	case Down:
		return "down"
	}
	return fmt.Sprintf("health-%d", int(h))
}

// Backend is one statsserved process as the gateway sees it: identity,
// health, and this gateway's session accounting. Values are snapshots —
// Registry methods return copies, never shared pointers.
type Backend struct {
	// ID is the backend's identity in metrics and the routing table: the
	// ID it was registered with, its address unless the caller chose
	// one. It never changes.
	ID string
	// Addr is the backend's base URL ("http://host:port").
	Addr string
	// Health is the latest probed routability state.
	Health Health

	// InFlight is the number of sessions this gateway routed here that
	// have not finished.
	InFlight int

	// Routed counts sessions ever sent here; Shed counts the times this
	// backend refused one with 429/503 and the gateway re-routed.
	Routed int64
	Shed   int64
}

// Registry tracks the backend set. All methods are goroutine-safe; all
// slice-returning methods use registration order, so every consumer —
// routing and metrics alike — sees backends in one deterministic
// order regardless of map or scheduling nondeterminism.
type Registry struct {
	mu    sync.Mutex
	order []string
	by    map[string]*Backend
}

// NewRegistry builds a registry over the given backends (usually from
// -backends). Backends start Ready; the gateway's probes downgrade them.
func NewRegistry(backends ...Backend) *Registry {
	r := &Registry{by: make(map[string]*Backend, len(backends))}
	for _, b := range backends {
		if b.ID == "" {
			b.ID = b.Addr
		}
		if _, dup := r.by[b.ID]; dup {
			continue
		}
		cp := b
		r.order = append(r.order, b.ID)
		r.by[b.ID] = &cp
	}
	return r
}

// Snapshots returns a copy of every backend, in registration order.
func (r *Registry) Snapshots() []Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Backend, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, *r.by[id])
	}
	return out
}

// Ready returns copies of the backends a new session may route to, in
// registration order.
func (r *Registry) Ready() []Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Backend, 0, len(r.order))
	for _, id := range r.order {
		if b := r.by[id]; b.Health == Ready {
			out = append(out, *b)
		}
	}
	return out
}

// SetHealth records a probed health transition.
func (r *Registry) SetHealth(id string, h Health) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.by[id]; ok {
		b.Health = h
	}
}

// StartSession accounts a proxy attempt in flight to id, from before the
// backend has answered until EndSession.
func (r *Registry) StartSession(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.by[id]; ok {
		b.InFlight++
	}
}

// MarkRouted counts a session the backend accepted (as opposed to an
// attempt it shed); Routed+Shed is every session ever offered to it.
func (r *Registry) MarkRouted(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.by[id]; ok {
		b.Routed++
	}
}

// EndSession accounts a routed session finishing (however it ended).
func (r *Registry) EndSession(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.by[id]; ok && b.InFlight > 0 {
		b.InFlight--
	}
}

// MarkShed accounts a backend refusing a session with 429/503; the
// gateway re-routes and the counter surfaces persistent refusers in
// /metrics and /v1/backends.
func (r *Registry) MarkShed(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.by[id]; ok {
		b.Shed++
	}
}
