package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"newslink"
)

func testDaemon(t *testing.T, cfg daemonConfig) *daemon {
	t.Helper()
	cfg.addr = cmp.Or(cfg.addr, "127.0.0.1:0")
	cfg.logger = cmp.Or(cfg.logger, quietLogger)
	d, err := newDaemon(sampleEngine(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// quietLogger discards what the modes log.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// sampleEngine is the engine newslinkd serves without -kg and -corpus.
func sampleEngine(t *testing.T) *newslink.Engine {
	t.Helper()
	e, err := buildEngine("", "", 0.2, "")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// startMode starts newslinkd in mode "single", "shard" or "router" as main
// does, over the sample corpus, and returns once its listeners are bound,
// with the daemon (its bound addresses) and the channel run's result
// arrives on; or the start-up error. A router is given the workers at
// shardAddrs, or one that never answers.
func startMode(t *testing.T, ctx context.Context, mode string, cfg daemonConfig, shardAddrs string) (*daemon, <-chan error, error) {
	cfg.addr = cmp.Or(cfg.addr, "127.0.0.1:0")
	done, bound := make(chan error, 1), make(chan *daemon, 1)
	switch mode {
	case "single":
		d, err := newDaemon(sampleEngine(t), cfg)
		if err != nil {
			return nil, nil, err
		}
		go func() { done <- d.run(ctx) }()
		return d, done, nil
	case "shard":
		go func() {
			done <- shardMain(ctx, shardConfig{addr: cfg.addr, dir: t.TempDir(), debugAddr: cfg.debugAddr,
				drainTimeout: cfg.drainTimeout, drainGrace: cfg.drainGrace, logger: cfg.logger}, bound)
		}()
	default:
		snap, e := t.TempDir(), sampleEngine(t)
		if err := errors.Join(e.Save(snap), e.Close()); err != nil {
			t.Fatal(err)
		}
		if shardAddrs == "" {
			shardAddrs = "http://" + silentWorker(t)
		}
		go func() {
			done <- routerMain(ctx, routerConfig{addr: cfg.addr, snapshot: snap, shardAddrs: shardAddrs, probeInterval: 50 * time.Millisecond,
				debugAddr: cfg.debugAddr, drainTimeout: cfg.drainTimeout, drainGrace: cfg.drainGrace, logger: cfg.logger}, bound)
		}()
	}
	select {
	case d := <-bound:
		return d, done, nil
	case err := <-done:
		return nil, nil, errors.Join(errors.New("exited before binding"), err)
	}
}

// silentWorker returns the address of a listener that closes every
// connection it accepts: a shard worker that never answers. The test
// holds it open until it ends, so no other listener can take its port.
func silentWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// running starts mode and fails the test if it cannot; it returns the
// daemon and the function that stops it.
func running(t *testing.T, mode string, cfg daemonConfig, shardAddrs string) (*daemon, <-chan error, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	d, done, err := startMode(t, ctx, mode, cfg, shardAddrs)
	if err != nil {
		t.Fatal(err)
	}
	return d, done, cancel
}

// inFlight is, per mode, a route that reads a JSON body before it answers,
// and the status inFlightDoc posted to it gets: the lifecycle tests hold
// requests in flight on it.
var inFlight = map[string]struct {
	path   string
	status int
}{"single": {"/v1/docs", http.StatusOK}, "shard": {"/v1/shard/assign", http.StatusBadRequest}, "router": {"/v1/docs", http.StatusForbidden}}

const inFlightDoc = `{"id":9001,"title":"Bulletin","text":"A bulletin about Lahore."}`

// runModes runs a lifecycle behaviour once per mode, as a subtest.
func runModes(t *testing.T, behaviour func(t *testing.T, mode string), modes ...string) {
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) { behaviour(t, mode) })
	}
}

func TestDebugListenerServes(t *testing.T)            { runModes(t, debugServes, "single") }
func TestClusterModesServeDebugAddr(t *testing.T)     { runModes(t, debugServes, "shard", "router") }
func TestDaemonBindFailureIsSynchronous(t *testing.T) { runModes(t, bindFailure, "single") }
func TestClusterModesDebugBindFailure(t *testing.T)   { runModes(t, bindFailure, "shard", "router") }
func TestDrainCompletesInFlightRequests(t *testing.T) { runModes(t, drainBounded, "single") }
func TestClusterModesHonourDrainTimeout(t *testing.T) { runModes(t, drainBounded, "shard", "router") }

// debugServes: the -debug-addr listener serves pprof and both metric
// expositions from its own server, and a clean drain — one that a request
// in flight at the stop signal finishes within — answers that request and
// takes the debug listener down with the main one.
func debugServes(t *testing.T, mode string) {
	cfg := daemonConfig{debugAddr: "127.0.0.1:0", drainTimeout: 2 * time.Second, logger: quietLogger}
	d, done, cancel := running(t, mode, cfg, "")
	expectDebugSurface(t, "http://"+d.DebugAddr(), nil)
	finish := openRequest(t, d.Addr(), inFlight[mode].path, len(inFlightDoc), inFlightDoc[:1])
	time.Sleep(100 * time.Millisecond) // the handler is reading its body
	cancel()                           // "SIGTERM"
	time.Sleep(100 * time.Millisecond) // the drain has begun
	if got := finish(inFlightDoc[1:]); got != inFlight[mode].status {
		t.Fatalf("the request in flight was answered %d, want %d", got, inFlight[mode].status)
	}
	if err := exited(t, done, d.Addr(), d.DebugAddr()); err != nil {
		t.Fatalf("run returned %v after a clean drain", err)
	}
}

// bindFailure: start-up binds synchronously. A taken address fails it,
// and so does a taken -debug-addr, with the single process's error; either
// way the mode leaves no socket open behind it, its main listener included.
func bindFailure(t *testing.T, mode string) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	shard := "http://" + silentWorker(t)
	http.DefaultClient.CloseIdleConnections()
	before := sockets(t)
	if _, _, err := startMode(t, context.Background(), mode, daemonConfig{addr: taken.Addr().String(), logger: quietLogger}, shard); err == nil {
		t.Fatal("started on a taken address")
	}
	_, _, err = startMode(t, context.Background(), mode, daemonConfig{debugAddr: taken.Addr().String(), logger: quietLogger}, shard)
	want := fmt.Sprintf("binding debug address %s: ", taken.Addr())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a taken -debug-addr: err = %v, want %q", err, want)
	}
	// A router's probes of the silent worker may still be closing.
	after := sockets(t)
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = sockets(t) {
		time.Sleep(20 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d sockets open after the failed starts, %d before: a listener was not released", after, before)
	}
}

// sockets counts this process's open socket descriptors.
func sockets(t *testing.T) (n int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	for _, fd := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:[") {
			n++
		}
	}
	return n
}

// drainBounded: on the stop signal a mode drains. Through -drain-grace its
// listener still answers, a request in flight is answered, one hung in
// flight is given up on after -drain-timeout, which run reports, and a
// client that dialed and never sent a request is hung up on within a
// second rather than waited for.
func drainBounded(t *testing.T, mode string) {
	cfg := daemonConfig{debugAddr: "127.0.0.1:0", drainTimeout: 500 * time.Millisecond,
		drainGrace: 150 * time.Millisecond, logger: quietLogger}
	d, done, cancel := running(t, mode, cfg, "")
	addr := d.Addr()
	finish := openRequest(t, addr, inFlight[mode].path, len(inFlightDoc), inFlightDoc[:1])
	openRequest(t, addr, inFlight[mode].path, 1000, "{")
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(100 * time.Millisecond) // both handlers are reading their bodies
	t0 := time.Now()
	cancel() // "SIGTERM"

	// The single process flips readiness to 503 as the drain starts; an
	// unassigned worker and a router without a live shard answer 503 all
	// along.
	ready := 0
	for deadline := time.Now().Add(cfg.drainGrace); ready != http.StatusServiceUnavailable && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/v1/readyz"); err == nil {
			ready = resp.StatusCode
			resp.Body.Close()
		}
	}
	if ready != http.StatusServiceUnavailable {
		t.Fatalf("readyz during the drain grace = %d, want 503", ready)
	}
	if got := finish(inFlightDoc[1:]); got != inFlight[mode].status {
		t.Fatalf("the request in flight was answered %d, want %d", got, inFlight[mode].status)
	}
	silent.SetReadDeadline(t0.Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Errorf("the silent client read %d bytes, %v; want the drain to hang up on it within a second", n, err)
	}
	if err := exited(t, done, addr, d.DebugAddr()); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Errorf("exited with %v, want a drain deadline error", err)
	}
	if took, want := time.Since(t0), cfg.drainGrace+cfg.drainTimeout; took < want-100*time.Millisecond || took >= want+time.Second {
		t.Fatalf("drain took %v, want about the %v of -drain-grace and -drain-timeout", took, want)
	}
}

// openRequest posts to path a JSON body of n bytes of which only sent has
// arrived, so its handler is running, blocked reading the rest. The
// function it returns sends rest and returns the response's status.
func openRequest(t *testing.T, addr, path string, n int, sent string) func(rest string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: newslinkd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, n, sent); err != nil {
		t.Fatal(err)
	}
	return func(rest string) int {
		t.Helper()
		_, err := io.WriteString(conn, rest)
		resp, rerr := http.ReadResponse(bufio.NewReader(conn), nil)
		if err = errors.Join(err, rerr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
}

// exited waits for a mode's run to return, asserts nothing accepts on
// addrs any more, and returns run's error.
func exited(t *testing.T, done <-chan error, addrs ...string) (err error) {
	t.Helper()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("still running 20s after the stop signal")
	}
	for _, addr := range addrs {
		if conn, derr := net.DialTimeout("tcp", addr, 200*time.Millisecond); derr == nil {
			conn.Close()
			t.Fatalf("listener %s still accepting after the drain", addr)
		}
	}
	return err
}

// expectDebugSurface asserts the debug listener at base answers pprof and
// both metric expositions, each body holding want's text for its path.
func expectDebugSurface(t *testing.T, base string, want map[string]string) {
	t.Helper()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/v1/metrics", "/v1/metrics/prom"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want[path]) {
			t.Fatalf("GET %s: status %d (%v), want 200 and %q in:\n%s", path, resp.StatusCode, err, want[path], body)
		}
	}
}

// TestHardenedTimeouts: both servers carry the slow-client protections.
func TestHardenedTimeouts(t *testing.T) {
	d := testDaemon(t, daemonConfig{debugAddr: "127.0.0.1:0"})
	for name, s := range map[string]*http.Server{"api": d.main, "debug": d.debug} {
		if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 || s.MaxHeaderBytes <= 0 {
			t.Fatalf("%s server missing hardening: %+v", name, s)
		}
	}
	if d.debug.WriteTimeout != 0 {
		t.Fatal("debug server must not bound writes (pprof profiles stream)")
	}
	if d.main.WriteTimeout <= 0 {
		t.Fatal("api server missing write timeout")
	}
	d.mainLn.Close()
	d.debugLn.Close()
}
