package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"newslink"
	"newslink/internal/kg"
)

// drainTimeout is the -drain-timeout the cluster-mode tests run under
// unless the drain itself is what they test.
const drainTimeout = 15 * time.Second

func TestParseShardAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", [][]string{{"http://a:1"}}},
		{"http://a:1,http://b:2", [][]string{{"http://a:1"}, {"http://b:2"}}},
		{"http://a:1|http://a2:1,http://b:2", [][]string{{"http://a:1", "http://a2:1"}, {"http://b:2"}}},
		{" http://a:1/ | http://a2:1 ", [][]string{{"http://a:1", "http://a2:1"}}},
	}
	for _, tc := range cases {
		if got := parseShardAddrs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseShardAddrs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLoadGraph(t *testing.T) {
	g, err := loadGraph("")
	if err != nil || g == nil {
		t.Fatalf("loadGraph(\"\") = %v, %v; want the sample graph", g, err)
	}
	path := filepath.Join(t.TempDir(), "graph.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kg.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := loadGraph(path)
	if err != nil {
		t.Fatalf("loadGraph(%q): %v", path, err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatalf("round-tripped graph has %d nodes, want %d", g2.NumNodes(), g.NumNodes())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loadGraph on a missing file succeeded")
	}
}

// TestClusterDaemonEndToEnd drives the real -shard/-router mains: two
// empty shard workers come up, the router seeds them from its snapshot
// over the blob endpoint, a public search answers with full (non-
// degraded) results, and an assigned worker's -debug-addr reports its
// metrics. Shutdown is the production path (context end → graceful
// drain).
func TestClusterDaemonEndToEnd(t *testing.T) {
	want, err := sampleEngine(t).Search("Taliban bombing in Lahore", 3)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var debug string
	dones, stops := []<-chan error{}, []context.CancelFunc{}
	for i := range 2 {
		cfg := daemonConfig{drainTimeout: drainTimeout, logger: quietLogger}
		if i == 0 {
			cfg.debugAddr = "127.0.0.1:0"
		}
		d, done, stop := running(t, "shard", cfg, "")
		if i == 0 {
			debug = d.DebugAddr()
		}
		addrs, dones, stops = append(addrs, d.Addr()), append(dones, done), append(stops, stop)
	}
	router, done, stop := running(t, "router", daemonConfig{drainTimeout: drainTimeout, logger: quietLogger},
		"http://"+addrs[0]+",http://"+addrs[1])
	base := router.Addr()
	// The sample corpus is a single segment, so both workers serve slot 0
	// as replicas; poll until assignment completes and results match the
	// single-process engine, and until the first worker's debug listener,
	// empty while it is unassigned, reports the slice it serves.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		var sr struct {
			Degraded bool
			Results  []newslink.Result
		}
		resp, err := http.Get("http://" + base + "/v1/search?q=Taliban+bombing+in+Lahore&k=3")
		if err == nil {
			err = errors.Join(json.NewDecoder(resp.Body).Decode(&sr), resp.Body.Close())
		}
		var metrics []byte
		if resp, merr := http.Get("http://" + debug + "/v1/metrics"); merr == nil {
			metrics, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil && !sr.Degraded && reflect.DeepEqual(sr.Results, want) && strings.Contains(string(metrics), "newslink_segments") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never served full results (%v, %+v) or its worker's metrics (%s)", err, sr, metrics)
		}
	}
	for _, stop := range append(stops, stop) {
		stop()
	}
	for _, done := range append(dones, done) {
		if err := exited(t, done); err != nil {
			t.Fatalf("exited with %v", err)
		}
	}
}

// TestRouterMainValidatesFlags pins the required-flag errors.
func TestRouterMainValidatesFlags(t *testing.T) {
	if err := routerMain(context.Background(), routerConfig{shardAddrs: "http://x"}, nil); err == nil {
		t.Fatal("router without -snapshot started")
	}
	if err := routerMain(context.Background(), routerConfig{snapshot: t.TempDir(), logger: quietLogger}, nil); err == nil {
		t.Fatal("router without -shard-addrs started")
	}
}

// TestClusterMainErrorPaths pins the startup failures: a bad graph path,
// a snapshot the router cannot load and a worker listed twice all surface
// as errors rather than hung processes (a taken address: bindFailure).
func TestClusterMainErrorPaths(t *testing.T) {
	logger, ctx := quietLogger, context.Background()

	if err := shardMain(ctx, shardConfig{addr: "127.0.0.1:0", id: "w", dir: t.TempDir(), kgPath: filepath.Join(t.TempDir(), "no-such-kg"), logger: logger}, nil); err == nil {
		t.Fatal("shardMain with a missing -kg started")
	}
	if err := routerMain(ctx, routerConfig{
		addr: "127.0.0.1:0", snapshot: t.TempDir(), shardAddrs: "http://x", logger: logger,
	}, nil); err == nil {
		t.Fatal("routerMain loaded an empty snapshot directory")
	}
	if err := routerMain(ctx, routerConfig{
		addr: "127.0.0.1:0", snapshot: t.TempDir(), shardAddrs: "http://x",
		kgPath: filepath.Join(t.TempDir(), "no-such-kg"), logger: logger,
	}, nil); err == nil {
		t.Fatal("routerMain with a missing -kg started")
	}
	// A worker serves one slot: one listed twice is a start-up error.
	if err := routerMain(ctx, routerConfig{
		addr: "127.0.0.1:0", snapshot: t.TempDir(), shardAddrs: "http://x,http://y|http://x", logger: logger,
	}, nil); err == nil || !strings.Contains(err.Error(), "http://x is listed more than once") {
		t.Fatalf("routerMain with a worker under two slots: %v", err)
	}
}

// TestRunShardSignalShutdown drives the production wrapper end to end:
// runShard installs its own SIGTERM context, so a signal to the test
// process must bring the worker down cleanly.
func TestRunShardSignalShutdown(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- runShard(shardConfig{addr: "127.0.0.1:0", id: "sig-test", dir: t.TempDir(), drainTimeout: drainTimeout, logger: quietLogger})
	}()
	// Give the worker a moment to install its signal handler and bind.
	time.Sleep(200 * time.Millisecond)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := exited(t, done); err != nil {
		t.Fatalf("runShard exited with %v", err)
	}
}
