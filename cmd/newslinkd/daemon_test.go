package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"newslink/internal/faults"
)

func testDaemon(t *testing.T, cfg daemonConfig) *daemon {
	t.Helper()
	e, err := buildEngine("", "", 0.2, "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr == "" {
		cfg.addr = "127.0.0.1:0"
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	d, err := newDaemon(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDrainCompletesInFlightRequests is the shutdown e2e: concurrent
// slow searches are in flight when the stop signal arrives; readiness
// flips to 503 while they finish, every admitted request completes with
// 200, run returns nil, and afterwards the listeners are closed.
func TestDrainCompletesInFlightRequests(t *testing.T) {
	d := testDaemon(t, daemonConfig{
		debugAddr:    "127.0.0.1:0",
		queryTimeout: 10 * time.Second,
		drainTimeout: 10 * time.Second,
		drainGrace:   300 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx) }()

	// Slow every search down in the BON stage so requests are reliably
	// still in flight when the drain starts.
	faults.Arm(faults.New().Delay(faults.BONStage, 400*time.Millisecond))
	defer faults.Disarm()

	base := "http://" + d.Addr()
	const n = 6
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/search?q=Taliban+Pakistan&k=3")
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the requests get admitted
	cancel()                           // "SIGTERM"

	// During the drain grace the listener still answers and readiness
	// reports draining.
	readyStatus := 0
	for deadline := time.Now().Add(250 * time.Millisecond); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/v1/readyz")
		if err != nil {
			break // grace elapsed and the listener closed; rely on readyStatus
		}
		readyStatus = resp.StatusCode
		resp.Body.Close()
		if readyStatus == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if readyStatus != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", readyStatus)
	}

	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("in-flight request %d finished with %d, want 200", i, st)
		}
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil after clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after drain")
	}

	// Both listeners are down.
	for _, addr := range []string{d.Addr(), d.DebugAddr()} {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			t.Fatalf("listener %s still accepting after drain", addr)
		}
	}
}

// TestDebugListenerServes: the debug server binds synchronously and
// serves pprof and metrics from its own http.Server.
func TestDebugListenerServes(t *testing.T) {
	d := testDaemon(t, daemonConfig{
		debugAddr:    "127.0.0.1:0",
		drainTimeout: 2 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx) }()

	for _, path := range []string{"/debug/pprof/cmdline", "/v1/metrics", "/v1/metrics/prom"} {
		resp, err := http.Get("http://" + d.DebugAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestDaemonBindFailureIsSynchronous: a port clash surfaces as a
// newDaemon error, not a background log line after startup.
func TestDaemonBindFailureIsSynchronous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().String()

	e, err := buildEngine("", "", 0.2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon(e, daemonConfig{addr: taken}); err == nil {
		t.Fatal("newDaemon bound an already-taken address")
	}
	// A debug-address clash must also fail and release the main listener.
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mainAddr := free.Addr().String()
	free.Close()
	if _, err := newDaemon(e, daemonConfig{addr: mainAddr, debugAddr: taken}); err == nil {
		t.Fatal("newDaemon bound a taken debug address")
	}
	if ln2, err := net.Listen("tcp", mainAddr); err != nil {
		t.Fatalf("main listener leaked after debug bind failure: %v", err)
	} else {
		ln2.Close()
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
