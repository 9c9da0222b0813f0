package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"newslink"
	"newslink/internal/corpus"
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
// over the blob endpoint, and a public search answers with full (non-
// degraded) results. Shutdown is the production path (context end →
// graceful drain).
func TestClusterDaemonEndToEnd(t *testing.T) {
	// Snapshot of the sample corpus.
	g, arts := corpus.Sample()
	e := newslink.New(g, newslink.DefaultConfig())
	for _, a := range arts {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir()
	if err := e.Save(snap); err != nil {
		t.Fatal(err)
	}
	want, err := e.Search("Taliban bombing in Lahore", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Two shard workers on ephemeral ports, empty artifact dirs.
	shardErrs := make(chan error, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		bound := make(chan string, 1)
		id := "shard" + string(rune('0'+i))
		dir := t.TempDir()
		go func() {
			shardErrs <- shardMain(ctx, shardConfig{addr: "127.0.0.1:0", id: id, dir: dir, drainTimeout: drainTimeout, logger: logger}, bound)
		}()
		select {
		case a := <-bound:
			addrs = append(addrs, "http://"+a)
		case err := <-shardErrs:
			t.Fatalf("shard %d exited before binding: %v", i, err)
		}
	}

	routerBound := make(chan string, 1)
	routerErr := make(chan error, 1)
	go func() {
		routerErr <- routerMain(ctx, routerConfig{
			addr:          "127.0.0.1:0",
			snapshot:      snap,
			shardAddrs:    strings.Join(addrs, ","),
			probeInterval: 50 * time.Millisecond,
			queryTimeout:  5 * time.Second,
			drainTimeout:  drainTimeout,
			logger:        logger,
		}, routerBound)
	}()
	var base string
	select {
	case a := <-routerBound:
		base = "http://" + a
	case err := <-routerErr:
		t.Fatalf("router exited before binding: %v", err)
	}

	// The sample corpus is a single segment, so both workers serve slot 0
	// as replicas; poll until assignment completes and results match the
	// single-process engine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/search?q=Taliban+bombing+in+Lahore&k=3")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var sr struct {
				Degraded bool              `json:"degraded"`
				Results  []newslink.Result `json:"results"`
			}
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("decoding search reply: %v\n%s", err, body)
			}
			if !sr.Degraded && reflect.DeepEqual(sr.Results, want) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never served full results; last status %d body %s", resp.StatusCode, body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Production shutdown path: context end drains both roles cleanly.
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-shardErrs:
			if err != nil {
				t.Fatalf("shard exited with %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("shard did not shut down")
		}
	}
	select {
	case err := <-routerErr:
		if err != nil {
			t.Fatalf("router exited with %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("router did not shut down")
	}
}

// TestRouterMainValidatesFlags pins the required-flag errors.
func TestRouterMainValidatesFlags(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := routerMain(context.Background(), routerConfig{shardAddrs: "http://x"}, nil); err == nil {
		t.Fatal("router without -snapshot started")
	}
	if err := routerMain(context.Background(), routerConfig{snapshot: t.TempDir(), logger: logger}, nil); err == nil {
		t.Fatal("router without -shard-addrs started")
	}
}

// TestClusterMainErrorPaths pins the startup failures: a bad graph
// path, an unbindable address, a snapshot the router cannot load and a
// worker listed twice all surface as errors rather than hung processes.
func TestClusterMainErrorPaths(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx := context.Background()

	if err := shardMain(ctx, shardConfig{addr: "127.0.0.1:0", id: "w", dir: t.TempDir(), kgPath: filepath.Join(t.TempDir(), "no-such-kg"), logger: logger}, nil); err == nil {
		t.Fatal("shardMain with a missing -kg started")
	}
	if err := shardMain(ctx, shardConfig{addr: "256.256.256.256:1", id: "w", dir: t.TempDir(), logger: logger}, nil); err == nil {
		t.Fatal("shardMain bound an impossible address")
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
	if err := routerMain(ctx, routerConfig{
		addr: "256.256.256.256:1", snapshot: t.TempDir(), shardAddrs: "http://x", logger: logger,
	}, nil); err == nil {
		t.Fatal("routerMain bound an impossible address")
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
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	done := make(chan error, 1)
	go func() {
		done <- runShard(shardConfig{addr: "127.0.0.1:0", id: "sig-test", dir: t.TempDir(), drainTimeout: drainTimeout, logger: logger})
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
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runShard exited with %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("runShard did not shut down on SIGTERM")
	}
}

// freeAddr returns a loopback address that was free a moment ago, for
// listeners whose bound address a test cannot otherwise learn.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// expectDebugSurface asserts the -debug-addr listener answers pprof and
// both metric expositions.
func expectDebugSurface(t *testing.T, addr string) {
	t.Helper()
	for _, path := range []string{"/debug/pprof/cmdline", "/v1/metrics", "/v1/metrics/prom"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestClusterModesServeDebugAddr: -debug-addr is honoured under -shard and
// -router — it used to be parsed and ignored, which is why the cluster
// tier could not be profiled — and goes down with the main server.
func TestClusterModesServeDebugAddr(t *testing.T) {
	e, err := buildEngine("", "", 0.2, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir()
	if err := e.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	shardDebug, routerDebug := freeAddr(t), freeAddr(t)
	shardBound, routerBound := make(chan string, 1), make(chan string, 1)
	shardErr, routerErr := make(chan error, 1), make(chan error, 1)
	go func() {
		shardErr <- shardMain(ctx, shardConfig{addr: "127.0.0.1:0", id: "dbg", dir: t.TempDir(), debugAddr: shardDebug, drainTimeout: drainTimeout, logger: logger}, shardBound)
	}()
	var shardAddr string
	select {
	case shardAddr = <-shardBound:
	case err := <-shardErr:
		t.Fatalf("shard exited before binding: %v", err)
	}
	// Unassigned, the worker's registry is empty but the surface answers.
	expectDebugSurface(t, shardDebug)

	go func() {
		routerErr <- routerMain(ctx, routerConfig{
			addr:          "127.0.0.1:0",
			snapshot:      snap,
			shardAddrs:    "http://" + shardAddr,
			debugAddr:     routerDebug,
			probeInterval: 50 * time.Millisecond,
			queryTimeout:  5 * time.Second,
			drainTimeout:  drainTimeout,
			logger:        logger,
		}, routerBound)
	}()
	select {
	case <-routerBound:
	case err := <-routerErr:
		t.Fatalf("router exited before binding: %v", err)
	}
	expectDebugSurface(t, routerDebug)

	// Once assigned, the shard's debug listener reports the engine's metrics.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + shardDebug + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "newslink_") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("assigned shard's debug metrics still empty: %s", body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	cancel()
	for name, errc := range map[string]chan error{"shard": shardErr, "router": routerErr} {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s exited with %v", name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not shut down", name)
		}
	}
	for _, addr := range []string{shardDebug, routerDebug} {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			t.Fatalf("debug listener %s still accepting after shutdown", addr)
		}
	}
}

// TestClusterModesDebugBindFailure: an unbindable -debug-addr fails
// start-up in both cluster modes with the error the single-process daemon
// gives, and releases the main listener.
func TestClusterModesDebugBindFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	debugAddr := taken.Addr().String()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx := context.Background()

	e, err := buildEngine("", "", 0.2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := t.TempDir()
	if err := e.Save(snap); err != nil {
		t.Fatal(err)
	}
	_, want := newDaemon(e, daemonConfig{addr: "127.0.0.1:0", debugAddr: debugAddr})
	if want == nil {
		t.Fatal("newDaemon bound a taken debug address")
	}

	shardAddr, routerAddr := freeAddr(t), freeAddr(t)
	got := map[string]error{
		"shard": shardMain(ctx, shardConfig{addr: shardAddr, id: "w", dir: t.TempDir(), debugAddr: debugAddr, logger: logger}, nil),
		"router": routerMain(ctx, routerConfig{
			addr: routerAddr, snapshot: snap, shardAddrs: "http://x", debugAddr: debugAddr, logger: logger,
		}, nil),
	}
	for mode, err := range got {
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s with a taken -debug-addr: err = %v, want %v", mode, err, want)
		}
	}
	for _, addr := range []string{shardAddr, routerAddr} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("main listener %s leaked after the debug bind failure: %v", addr, err)
			continue
		}
		ln.Close()
	}
}

// TestClusterModesHonourDrainTimeout: -drain-timeout bounds the drain under
// -shard and -router — it used to be parsed and ignored there (15 s, hard-
// coded). Each mode has one request hung in flight when the stop signal
// arrives and must give up on it after the configured second.
func TestClusterModesHonourDrainTimeout(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	// drained cancels ctx and returns how long the mode took to come down.
	drained := func(t *testing.T, cancel context.CancelFunc, done <-chan error) time.Duration {
		t.Helper()
		t0 := time.Now()
		cancel()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "drain") {
				t.Errorf("exited with %v, want a drain deadline error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("still draining after 10s with -drain-timeout 1s")
		}
		return time.Since(t0)
	}
	check := func(t *testing.T, took time.Duration) {
		t.Helper()
		if took < 900*time.Millisecond || took > 5*time.Second {
			t.Fatalf("drain took %v, want about the 1s -drain-timeout", took)
		}
	}

	t.Run("shard", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		bound, done := make(chan string, 1), make(chan error, 1)
		go func() {
			done <- shardMain(ctx, shardConfig{addr: "127.0.0.1:0", id: "hung", dir: t.TempDir(),
				drainTimeout: time.Second, logger: logger}, bound)
		}()
		var addr string
		select {
		case addr = <-bound:
		case err := <-done:
			t.Fatalf("shard exited before binding: %v", err)
		}
		// A request whose promised body never arrives: the handler is
		// invoked and blocks reading it.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /v1/shard/assign HTTP/1.1\r\nHost: shard\r\nContent-Length: 1000\r\n\r\n{"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
		check(t, drained(t, cancel, done))
	})

	t.Run("router", func(t *testing.T) {
		e, err := buildEngine("", "", 0.2, "")
		if err != nil {
			t.Fatal(err)
		}
		snap := t.TempDir()
		if err := e.Save(snap); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		// A stand-in worker that acknowledges any assignment and then never
		// answers a search.
		release, searching := make(chan struct{}), make(chan struct{}, 1)
		worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/shard/assign":
				var req struct {
					Plan string `json:"plan"`
				}
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				json.NewEncoder(w).Encode(map[string]any{"plan": req.Plan, "fetched": 0})
			case "/v1/shard/search":
				searching <- struct{}{}
				<-release
			default:
				http.NotFound(w, r)
			}
		}))
		defer worker.Close()
		defer close(release)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		bound, done := make(chan string, 1), make(chan error, 1)
		go func() {
			done <- routerMain(ctx, routerConfig{addr: "127.0.0.1:0", snapshot: snap, shardAddrs: worker.URL,
				probeInterval: 50 * time.Millisecond, queryTimeout: 30 * time.Second,
				drainTimeout: time.Second, logger: logger}, bound)
		}()
		var addr string
		select {
		case addr = <-bound:
		case err := <-done:
			t.Fatalf("router exited before binding: %v", err)
		}
		// Searches answer 503 until the stand-in is assigned and admitted;
		// the first one that reaches it hangs there.
		go func() {
			for ctx.Err() == nil {
				resp, err := http.Get("http://" + addr + "/v1/search?q=Taliban+bombing+in+Lahore")
				if err != nil {
					return
				}
				resp.Body.Close()
				time.Sleep(20 * time.Millisecond)
			}
		}()
		select {
		case <-searching:
		case <-time.After(10 * time.Second):
			t.Fatal("no search reached the worker within 10s")
		}
		check(t, drained(t, cancel, done))
	})
}
