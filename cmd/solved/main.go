// Command solved serves solve-as-a-service over HTTP: a thin facade
// (internal/solved) on the sharded stream scheduler that turns POSTed
// linear systems into streamed solve tickets and the runtime's typed
// failures into status codes — 429 + Retry-After when every queue is
// full, 504 on missed deadlines, 422 with the pivot index on singular
// systems. GET /stats exposes per-shard queue depths and the stream
// counters for dashboards.
//
// Usage:
//
//	solved -addr :8080 -shards 4 -queue 64 -policy shed -w 4
//
// Try it:
//
//	curl -s localhost:8080/solve -d '{"a":[[4,1],[1,3]],"d":[1,2],"w":2}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/solved"
	"repro/internal/stream"
)

// drainTimeout bounds how long a SIGINT/SIGTERM shutdown waits for
// in-flight requests before the scheduler is closed anyway.
const drainTimeout = 30 * time.Second

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold connections
// open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "stream shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "per-shard queue bound (0 = default)")
	policy := flag.String("policy", "shed", "admission when saturated: block or shed")
	w := flag.Int("w", 4, "default simulated array size for requests that omit w")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.Parse()

	var pol stream.Policy
	switch *policy {
	case "block":
		pol = stream.Block
	case "shed":
		pol = stream.Shed
	default:
		fmt.Fprintf(os.Stderr, "solved: unknown -policy %q (want block or shed)\n", *policy)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	s := stream.New(stream.Config{Shards: *shards, QueueBound: *queue, Policy: pol})
	srv := solved.New(solved.Config{Stream: s, W: *w, RetryAfter: *retryAfter})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("solved: serving on %s (%d shards, %s admission)", ln.Addr(), s.Shards(), pol)
	if err := serve(ctx, ln, srv, s); err != nil {
		log.Fatal(err)
	}
	log.Printf("solved: drained and stopped")
}

// serve answers h on ln until ctx is done, then stops accepting, lets the
// in-flight requests finish (for at most drainTimeout) and closes s, so a
// signal never drops a ticket that a request is still waiting on. It also
// closes s when the listener fails.
func serve(ctx context.Context, ln net.Listener, h http.Handler, s *stream.Scheduler) error {
	defer s.Close()
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return hs.Shutdown(sctx)
}
