package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"gostats/internal/cluster"
)

// failThreshold is how many consecutive failed probe rounds turn a
// backend Down. One success brings it straight back.
const failThreshold = 2

// probeLoop runs a probe round now and then every interval until ctx is
// done. A probe waits at most interval, and at most fetchTimeout. Probe
// cadence shifts when the registry sees a health change, never what
// round-robin picks from a given ready set.
func (g *gateway) probeLoop(ctx context.Context, interval time.Duration) {
	timeout := min(interval, fetchTimeout)
	g.probeRound(ctx, timeout)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probeRound(ctx, timeout)
		}
	}
}

// probeRound sends every backend one /readyz GET and records what it
// says: 200 is Ready, any other answer Draining (the canonical one is 503
// "draining": alive, but taking no new sessions), and failThreshold
// failed rounds in a row Down. Rounds must not overlap; probeLoop runs
// them one at a time.
func (g *gateway) probeRound(ctx context.Context, timeout time.Duration) {
	for _, b := range g.reg.Snapshots() {
		_, status, err := g.get(ctx, b.Addr+"/readyz", timeout)
		switch {
		case err != nil:
			g.fails[b.ID]++
			if g.fails[b.ID] >= failThreshold {
				g.reg.SetHealth(b.ID, cluster.Down)
			}
		case status == http.StatusOK:
			g.fails[b.ID] = 0
			g.reg.SetHealth(b.ID, cluster.Ready)
		default:
			g.fails[b.ID] = 0
			g.reg.SetHealth(b.ID, cluster.Draining)
		}
	}
}

// maxBody bounds the body get reads. A body over it is refused whole: a
// page cut short could end in a line that parses as a smaller number.
const maxBody = 4 << 20

// get fetches url on the gateway's client within timeout and returns its
// body and status. It is the one GET the gateway makes of a backend: the
// probes' /readyz, and /metrics and /v1/benchmarks on a client's request.
func (g *gateway) get(ctx context.Context, url string, timeout time.Duration) (string, int, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err == nil && len(raw) > maxBody {
		err = errors.New("statsgate: response body over 4 MiB")
	}
	return string(raw), resp.StatusCode, err
}
