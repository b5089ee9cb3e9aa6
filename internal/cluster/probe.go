package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// Prober keeps a Registry's health current by polling each backend's
// /readyz: a probe round is one GET a backend. It is the one wall-clock
// consumer in this package: probe cadence shifts *when* health
// transitions are observed, never *what* the policy decides from a given
// registry state, so the determinism contract of the decision core is
// untouched.
type Prober struct {
	// Registry receives health transitions.
	Registry *Registry
	// Interval between probe rounds (default 500ms). One probe request
	// may take Interval, at most 2s.
	Interval time.Duration

	fails map[string]int
}

// failThreshold is how many consecutive failed rounds turn a backend
// Down. One success brings it straight back.
const failThreshold = 2

// withDefaults resolves zero fields; called once per Run/ProbeOnce.
func (p *Prober) withDefaults() {
	if p.Interval <= 0 {
		p.Interval = 500 * time.Millisecond
	}
	if p.fails == nil {
		p.fails = make(map[string]int)
	}
}

// Run probes every Interval until ctx is done. Call from one goroutine.
func (p *Prober) Run(ctx context.Context) {
	p.withDefaults()
	p.ProbeOnce(ctx)
	t := time.NewTicker(p.Interval) //statslint:allow detpath probe cadence is liveness instrumentation; routing reads only the resulting health state
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce runs one probe round over the current backend set.
func (p *Prober) ProbeOnce(ctx context.Context) {
	p.withDefaults()
	for _, b := range p.Registry.Snapshots() {
		p.probe(ctx, b)
	}
}

// probe checks one backend: /readyz decides Ready vs Draining, and
// repeated failures decide Down.
func (p *Prober) probe(ctx context.Context, b Backend) {
	_, status, err := Get(ctx, b.Addr+"/readyz", min(p.Interval, 2*time.Second))
	switch {
	case err != nil:
		p.fails[b.ID]++
		if p.fails[b.ID] >= failThreshold {
			p.Registry.SetHealth(b.ID, Down)
		}
	case status == http.StatusOK:
		p.fails[b.ID] = 0
		p.Registry.SetHealth(b.ID, Ready)
	default:
		// The canonical not-ready answer is 503 "draining": the process
		// is alive but must not receive new sessions.
		p.fails[b.ID] = 0
		p.Registry.SetHealth(b.ID, Draining)
	}
}

// maxBody bounds the body Get reads. A body over it is refused whole: a
// page cut short could end in a line that parses as a smaller number.
const maxBody = 4 << 20

// Get fetches url within timeout and returns its body and status. It is
// the one GET the gateway makes of a backend: the prober's /readyz, and
// the gateway's /metrics and /v1/benchmarks.
func Get(ctx context.Context, url string, timeout time.Duration) (string, int, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err == nil && len(raw) > maxBody {
		err = errors.New("cluster: response body over 4 MiB")
	}
	return string(raw), resp.StatusCode, err
}
