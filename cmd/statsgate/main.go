// Command statsgate is the cluster front door for statsserved: it
// multiplexes streaming STATS sessions across N backends.
//
// Usage:
//
//	statsgate -backends http://h1:8417,http://h2:8417 [-addr :8427]
//	          [-probe-interval 500ms] [-grace 15s] [-migrate] [-ckpt-every 32]
//
// It proxies full-duplex NDJSON sessions at POST /v1/stream/{benchmark}
// to the ready backends in round-robin order and re-routes a session
// that a backend sheds with 429/503 — always before any output byte — to
// the next backend in that order, replaying the consumed request bytes.
// When every backend sheds it, the gateway answers 429 with the soonest
// Retry-After any backend gave; it has no admission control of its own.
// Once output has streamed, the session is pinned and bytes are relayed
// untouched, so committed outputs are byte-identical to a direct
// statsserved run.
// Backend health comes from one /readyz probe per backend every
// -probe-interval, on the same HTTP client as the sessions (draining
// backends stop receiving new sessions; two consecutive failures mark a
// backend down). A backend is known by its -backends address, in the
// routing table and in /metrics. With -migrate, sessions run under the
// checkpointed protocol: backends interleave #ckpt snapshot lines every
// -ckpt-every commits, the gateway consumes them (trimming its replay
// buffer to the checkpoint frontier), and a session whose backend drains
// mid-stream — halting at its commit frontier with a #migrate marker,
// where the gateway hands it off — or dies outright is resumed from the
// latest checkpoint on the next ready backend. The client sees one
// uninterrupted stream, byte-identical to an unmigrated run. GET
// /metrics aggregates every backend's counters into cluster-wide sums,
// GET /v1/backends shows the routing table, and SIGTERM drains like
// statsserved.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gostats/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8427", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend /readyz probe interval")
	grace := flag.Duration("grace", 15*time.Second, "drain period for in-flight sessions on SIGTERM")
	migrate := flag.Bool("migrate", false, "checkpoint sessions and resume them on another backend when theirs drains or dies (session mobility)")
	ckptEvery := flag.Int("ckpt-every", 32, "with -migrate, commits between session checkpoints")
	flag.Parse()

	var bs []cluster.Backend
	for _, a := range strings.Split(*backends, ",") {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a != "" {
			bs = append(bs, cluster.Backend{Addr: a})
		}
	}
	if err := checkFlags(bs, *probeInterval, *ckptEvery); err != nil {
		fmt.Fprintln(os.Stderr, "statsgate:", err)
		os.Exit(1)
	}

	g := newGateway(cluster.NewRegistry(bs...))
	g.migrate, g.ckptEvery = *migrate, *ckptEvery

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.probeLoop(ctx, *probeInterval)

	srv := &http.Server{Addr: *addr, Handler: g.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("statsgate listening on %s (%d backends)", *addr, len(bs))

	select {
	case err := <-errc:
		log.Fatalf("statsgate: %v", err)
	case <-ctx.Done():
		stop()
		g.startDrain()
		log.Printf("statsgate: signal received, draining sessions (grace %s)", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("statsgate: drain incomplete (%v), force closing", err)
			srv.Close()
		}
	}
}

// checkFlags refuses, naming the flag, what the gateway cannot run with:
// no backend, a probe interval that is not positive, or a negative
// checkpoint period, which no number of commits is. (A period of 0 asks
// for no periodic checkpoint: a session then moves only at a drain.)
func checkFlags(bs []cluster.Backend, probeInterval time.Duration, ckptEvery int) error {
	switch {
	case len(bs) == 0:
		return errors.New("-backends is required")
	case probeInterval <= 0:
		return errors.New("-probe-interval must be positive")
	case ckptEvery < 0:
		return errors.New("-ckpt-every must not be negative")
	}
	return nil
}
