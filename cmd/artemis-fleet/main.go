// Command artemis-fleet hosts a fleet of simulated intermittent devices
// behind an HTTP monitoring service: a device registry, batched event
// ingestion with backpressure, a background stepping loop over the sharded
// fleet engine, Prometheus scrape, and an embedded dashboard.
//
//	artemis-fleet                            # serve on :8080, empty registry
//	artemis-fleet -devices 64                # pre-register a 64-device mix
//	artemis-fleet -listen :9000 -shards 8    # placement knobs (results identical)
//	artemis-fleet -step-interval 5ms         # faster stepping cadence
//
// The API (see docs/FLEET.md):
//
//	POST   /v1/devices        {"spec":"health"} or {"spec":"health","count":16}
//	GET    /v1/devices        list; GET /v1/devices/{id} live state
//	DELETE /v1/devices/{id}   acknowledged only once the device can no longer step
//	POST   /v1/events:batch   {"events":[{"device":"health-1","kind":"start","task":"send"}]}
//	GET    /metrics           Prometheus text; GET /healthz; GET / dashboard
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

// Read deadlines for one request, so a client that trickles its headers or
// body cannot hold a connection open indefinitely. readTimeout also bounds
// how long a keep-alive connection may sit idle.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "artemis-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("artemis-fleet", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":8080", "HTTP listen address")
		shards   = fs.Int("shards", 0, "fleet shards; 0 = one per CPU; digests are identical at any count")
		workers  = fs.Int("workers", 0, "shard workers per step; 0 = one per CPU; digests are identical at any count")
		queue    = fs.Int("queue-depth", 256, "per-device ingestion queue bound; full queues answer 429")
		interval = fs.Duration("step-interval", 10*time.Millisecond, "pause between fleet steps")
		devices  = fs.Int("devices", 0, "pre-register N devices (round-robin over the example specs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *devices < 0 {
		return fmt.Errorf("-devices %d: must be >= 0", *devices)
	}
	if *queue <= 0 {
		return fmt.Errorf("-queue-depth %d: must be positive", *queue)
	}

	srv, err := fleetserver.New(fleetserver.Config{
		Shards: *shards, Workers: *workers,
		QueueDepth: *queue, StepInterval: *interval,
	})
	if err != nil {
		return err
	}

	specs := srv.SpecNames()
	for i := 0; i < *devices; i++ {
		if _, err := srv.Register("", specs[i%len(specs)]); err != nil {
			return fmt.Errorf("pre-register device %d: %w", i, err)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
	srv.Start()
	fmt.Fprintf(w, "artemis-fleet: serving on http://%s (%d devices registered)\n",
		ln.Addr(), srv.DeviceCount())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Fprintf(w, "artemis-fleet: %v, shutting down\n", s)
	case err := <-serveErr:
		srv.Shutdown(context.Background())
		return err
	}

	// Quiesce: stop accepting HTTP first, then drain the fleet so every
	// acknowledged event is delivered before the final digest is printed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "artemis-fleet: stopped after %d fleet steps, digest %016x\n",
		srv.Steps(), srv.Digest())
	return nil
}
