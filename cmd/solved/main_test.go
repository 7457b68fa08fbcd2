package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/solved"
	"repro/internal/stream"
)

// TestServeDrainsInFlightSolve: cancelling serve's context (what SIGTERM
// does) while a /solve is in flight must let that request finish with its
// 200 before serve returns, and must close the scheduler afterwards.
func TestServeDrainsInFlightSolve(t *testing.T) {
	s := stream.New(stream.Config{Shards: 1})
	api := solved.New(solved.Config{Stream: s, W: 2})
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		close(entered)
		<-release
		api.ServeHTTP(rw, req)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, h, s) }()

	type reply struct {
		status int
		body   solved.Response
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		client := &http.Client{Transport: &http.Transport{}}
		resp, err := client.Post("http://"+ln.Addr().String()+"/solve", "application/json",
			strings.NewReader(`{"a":[[4,1],[1,3]],"d":[1,2],"w":2}`))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var r reply
		r.status = resp.StatusCode
		r.err = json.NewDecoder(resp.Body).Decode(&r.body)
		replied <- r
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	r := <-replied
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight /solve: status %d, err %v; want 200", r.status, r.err)
	}
	if len(r.body.X) != 2 {
		t.Fatalf("in-flight /solve: x = %v, want 2 entries", r.body.X)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	a := matrix.NewDense(1, 1)
	a.Set(0, 0, 1)
	if _, err := s.SubmitSolveOpts(a, matrix.Vector{1}, 1, solve.Options{}, stream.QoS{}); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("submit after serve returned: err %v, want ErrClosed", err)
	}
}
