package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"newslink"
	"newslink/internal/cluster"
	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/server"
)

// target is a running system under test: where requests go, and which
// processes its CPU and memory are charged to.
type target struct {
	url  string
	pids []int
	stop func()
	// handler is the public HTTP handler of an in-process target, for
	// driving it without a socket; nil for real processes.
	handler http.Handler
}

// launcher starts one fresh system under test in dir and returns once its
// listeners are bound; readiness is the caller's to await (it is part of
// setup_s). The end-to-end benchmark launches real newslinkd processes; the
// smoke test and the traced run launch the same handlers in-process.
type launcher func(dir string) (*target, error)

const ingestQueue = 4096

// buildEngine cold-builds an engine from the generated files exactly as
// newslinkd does (kg.Read, corpus.ReadJSONL, AddAll, Build) so rankings
// are comparable bit for bit. With segments > 1 the corpus is sealed in
// that many equal pieces, the shape the cluster partitions.
func buildEngine(in *inputs, segments int, opts ...newslink.Option) (*newslink.Engine, *kg.Graph, error) {
	g, err := readGraph(in.kgPath)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(in.corpus)
	if err != nil {
		return nil, nil, err
	}
	arts, err := corpus.ReadJSONL(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	docs := make([]newslink.Document, len(arts))
	for i, a := range arts {
		docs[i] = newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	// The option set newslinkd passes for its default flags.
	base := []newslink.Option{newslink.DefaultConfig(), newslink.WithParallelEmbed(0), newslink.WithEmbedCache(128)}
	e := newslink.New(g, append(base, opts...)...)
	segments = max(segments, 1)
	for s := 0; s < segments; s++ {
		lo, hi := s*len(docs)/segments, (s+1)*len(docs)/segments
		if err := e.AddAll(docs[lo:hi], 0); err != nil {
			return nil, nil, err
		}
		if s == 0 {
			err = e.Build()
		} else {
			e.Refresh()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if n := e.NumSegments(); n != segments {
		return nil, nil, fmt.Errorf("built %d segments, want %d", n, segments)
	}
	return e, g, nil
}

func readGraph(path string) (*kg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kg.Read(f)
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed again before the server binds it, which is racy in principle and
// fine on a host where nothing else is opening ports.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// procs launches real newslinkd processes built at bin. snapshot is the
// directory the cluster router partitions (unused by single-process
// workloads).
func procs(bin string, in *inputs, snapshot string) launcher {
	return func(dir string) (*target, error) {
		var cmds []*exec.Cmd
		stop := func() {
			// The router goes first so it stops talking to dying shards.
			for i := len(cmds) - 1; i >= 0; i-- {
				stopProc(cmds[i])
			}
		}
		start := func(name string, args ...string) (string, error) {
			addr, err := freeAddr()
			if err != nil {
				return "", err
			}
			logf, err := os.Create(filepath.Join(dir, name+".log"))
			if err != nil {
				return "", err
			}
			defer logf.Close() // the child holds its own descriptor
			cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
			cmd.Stdout, cmd.Stderr = logf, logf
			if err := cmd.Start(); err != nil {
				return "", fmt.Errorf("starting %s: %w", name, err)
			}
			cmds = append(cmds, cmd)
			return "http://" + addr, nil
		}
		s := in.spec
		var url string
		var err error
		if s.shards == 0 {
			args := []string{"-kg", in.kgPath, "-corpus", in.corpus}
			if s.stream {
				args = append(args, "-wal", filepath.Join(dir, "wal"), "-ingest-queue", strconv.Itoa(ingestQueue))
			}
			url, err = start("newslinkd", args...)
		} else {
			var shardURLs []string
			for i := 0; i < s.shards && err == nil; i++ {
				var u string
				name := "shard" + strconv.Itoa(i)
				u, err = start(name, "-shard", "-kg", in.kgPath, "-shard-dir", filepath.Join(dir, name))
				shardURLs = append(shardURLs, u)
			}
			if err == nil {
				url, err = start("router", "-router", "-kg", in.kgPath, "-snapshot", snapshot,
					"-shard-addrs", strings.Join(shardURLs, ","))
			}
		}
		if err != nil {
			stop()
			return nil, err
		}
		t := &target{url: url, stop: stop}
		for _, c := range cmds {
			t.pids = append(t.pids, c.Process.Pid)
		}
		return t, nil
	}
}

// stopProc asks for a clean drain and falls back to SIGKILL; either way it
// returns only after the process has been reaped.
func stopProc(cmd *exec.Cmd) {
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // exit status of a signalled server is not a finding
		close(done)
	}()
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// inProcess launches the same handlers newslinkd serves inside this
// process, on httptest listeners. wrapWorker, when non-nil, decorates each
// shard worker's handler (the traced run counts RPCs and bytes there).
func inProcess(in *inputs, snapshot string, wrapWorker func(http.Handler) http.Handler) launcher {
	return func(dir string) (*target, error) {
		self := []int{os.Getpid()}
		s := in.spec
		if s.shards == 0 {
			var opts []newslink.Option
			if s.stream {
				opts = append(opts, newslink.WithWAL(filepath.Join(dir, "wal")), newslink.WithIngestQueue(ingestQueue))
			}
			e, _, err := buildEngine(in, 1, opts...)
			if err != nil {
				return nil, err
			}
			h := server.New(e, server.WithQueryTimeout(20*time.Second),
				server.WithMaxInFlight(256), server.WithAdmissionWait(100*time.Millisecond)).Handler()
			ts := httptest.NewServer(h)
			return &target{url: ts.URL, pids: self, handler: h, stop: func() {
				ts.Close()
				_ = e.Close() // a failed WAL close cannot change a finished run
			}}, nil
		}
		g, err := readGraph(in.kgPath)
		if err != nil {
			return nil, err
		}
		var closers []func()
		stop := func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}
		endpoints := make([][]string, s.shards)
		for i := range endpoints {
			name := "shard" + strconv.Itoa(i)
			if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
				stop()
				return nil, err
			}
			h := cluster.NewWorker(name, filepath.Join(dir, name), g, quietLogger()).Handler()
			if wrapWorker != nil {
				h = wrapWorker(h)
			}
			ts := httptest.NewServer(h)
			closers = append(closers, ts.Close)
			endpoints[i] = []string{ts.URL}
		}
		// The router's URL must exist before NewRouter (workers fetch
		// segment artifacts from it), hence the swappable handler.
		var h atomic.Pointer[http.Handler]
		nf := http.NotFoundHandler()
		h.Store(&nf)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*h.Load()).ServeHTTP(w, r)
		}))
		closers = append(closers, ts.Close)
		rt, err := cluster.NewRouter(snapshot, g, cluster.Config{
			Endpoints: endpoints, SelfURL: ts.URL, Logger: quietLogger(), RequestTimeout: 20 * time.Second})
		if err != nil {
			stop()
			return nil, err
		}
		rh := rt.Handler()
		h.Store(&rh)
		ctx, cancel := context.WithCancel(context.Background())
		closers = append(closers, rt.Close, cancel)
		if err := rt.Start(ctx); err != nil {
			stop()
			return nil, err
		}
		return &target{url: ts.URL, pids: self, handler: rh, stop: stop}, nil
	}
}

// procCPU returns the user+system CPU seconds the processes have consumed
// so far, from /proc/<pid>/stat fields 14 and 15.
func procCPU(pids []int) (float64, error) {
	const clockTick = 100 // USER_HZ on every Linux platform Go supports
	var ticks int64
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			return 0, err
		}
		// The command name may contain spaces; fields resume after ')'.
		rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
		}
		ticks += ut + st
	}
	return float64(ticks) / clockTick, nil
}

// procPeakRSS sums the processes' VmHWM, in MB.
func procPeakRSS(pids []int) (float64, error) {
	var kb int64
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("unparsable VmHWM of %d: %q", pid, v)
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", pid)
		}
	}
	return float64(kb) / 1024, nil
}
