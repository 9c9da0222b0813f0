// Command newslinkd serves NewsLink search over HTTP.
//
//	newslinkd [-addr :8080] [-kg kg.tsv -corpus corpus.jsonl]
//	          [-beta 0.2] [-snapshot dir] [-querytimeout 20s]
//	          [-max-inflight 256] [-admission-wait 100ms] [-bon-timeout 0]
//	          [-wal dir] [-ingest-queue 0]
//	          [-drain-timeout 15s] [-drain-grace 0]
//	          [-debug-addr :6060] [-log-level info]
//
// Without -kg/-corpus the built-in sample corpus is served. With -snapshot,
// a previously saved engine snapshot is loaded (or written after indexing
// if the directory does not exist yet), so restarts skip the corpus
// embedding cost; a start that loads a snapshot reads only the -kg file,
// never the -corpus one. A loaded snapshot's indexes are read onto the
// heap at start-up, and each returned document is read from its segment's
// documents artifact with one pread; no snapshot file is mapped.
//
// The API is served under /v1/.
// -querytimeout bounds each query server-side; an exceeded deadline is
// reported as 504 in the JSON error envelope, a client disconnect as 499.
//
// Resilience: -max-inflight caps concurrent query work (excess requests
// wait up to -admission-wait, then are shed with 429); -bon-timeout puts
// a stage deadline on the graph side of fused search, past which results
// degrade to BOW-only ranking instead of blocking. On SIGINT/SIGTERM the
// process drains: /v1/readyz flips to 503 (liveness /v1/healthz stays
// 200), -drain-grace lets load balancers observe the flip, connections
// that have sent no request are closed, in-flight requests run to
// completion within -drain-timeout, the ingest queue is applied and the
// write-ahead log closed, and the process exits 0. -shard and -router
// drain through the same lifecycle: -drain-grace, then in-flight requests
// within -drain-timeout.
//
// Streaming ingestion: -ingest-queue arms the async write pipeline behind
// POST /v1/docs:stream (a full queue sheds with 429 + Retry-After; POST
// /v1/docs and DELETE /v1/docs/{id} stay synchronous, bounded by admission
// control like the queries), and
// -wal makes every acknowledged post-startup write durable — after a
// crash the next start with the same -wal directory replays the log.
//
// Observability: every request gets an X-Request-Id and one structured
// access-log line on stderr (-log-level debug additionally logs per-stage
// trace spans of trace=1 requests); /v1/metrics and /v1/metrics/prom expose
// the metric registry. -debug-addr starts a second, private listener with
// net/http/pprof under /debug/pprof/ plus the same metrics endpoints, in
// all three modes (single process, -shard, -router) — keep it off public
// interfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/obs"
	"newslink/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	kgPath := flag.String("kg", "", "knowledge graph TSV (default: built-in sample)")
	corpusPath := flag.String("corpus", "", "corpus JSONL (default: built-in sample)")
	beta := flag.Float64("beta", 0.2, "Equation 3 fusion weight")
	snapshot := flag.String("snapshot", "", "engine snapshot directory (load if present, save after indexing otherwise)")
	queryTimeout := flag.Duration("querytimeout", 20*time.Second, "per-request search deadline (0 = unbounded); expired requests return 504")
	maxInFlight := flag.Int("max-inflight", 256, "admission-control capacity for the query routes (0 = unlimited)")
	admissionWait := flag.Duration("admission-wait", 100*time.Millisecond, "how long an over-capacity request may wait before it is shed with 429")
	bonTimeout := flag.Duration("bon-timeout", 0, "BON stage deadline for fused search; past it results degrade to BOW-only (0 = unbounded)")
	embedWorkers := flag.Int("embed-workers", 0, "per-document entity-group embedding fan-out (0 = GOMAXPROCS, 1 = sequential)")
	embedCache := flag.Int("embed-cache", 128, "entity-set embedding cache capacity (0 disables the tier)")
	walDir := flag.String("wal", "", "write-ahead log directory: post-startup writes are durably logged and replayed after a crash (empty = disabled)")
	ingestQueue := flag.Int("ingest-queue", 0, "bounded async ingest queue for POST /v1/docs:stream; a full queue sheds with 429 (0 = synchronous ingestion)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "shutdown deadline for in-flight requests after SIGINT/SIGTERM, in all three modes")
	drainGrace := flag.Duration("drain-grace", 0, "pause between the stop signal (single process: flipping /v1/readyz to 503) and closing listeners, for load balancers to take the instance out of rotation")
	debugAddr := flag.String("debug-addr", "", "optional private listen address for net/http/pprof and metrics (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	shardMode := flag.Bool("shard", false, "run as a cluster shard worker: serve the /v1/shard/ RPC surface and wait for a router assignment")
	shardID := flag.String("shard-id", "", "shard worker identity (default: the bound listen address)")
	shardDir := flag.String("shard-dir", "", "shard worker artifact directory (default: a fresh temp directory)")
	routerMode := flag.Bool("router", false, "run as a cluster router: serve the public API over the -snapshot, its postings traversals scattered over the -shard-addrs workers")
	shardAddrs := flag.String("shard-addrs", "", "router: comma-separated shard endpoint groups, replicas within a group separated by '|', each worker URL once (e.g. http://a,http://b1|http://b2)")
	selfURL := flag.String("self-url", "", "router: externally reachable base URL of this router; workers fetch missing or damaged segment artifacts from it (default: the bound listen address)")
	hedge := flag.Bool("hedge", false, "router: hedge slow shard requests to a second replica after the shard's p99 latency")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "router: interval at which ejected shard endpoints are re-assigned their slot")
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *shardMode && *routerMode {
		log.Fatal("-shard and -router are mutually exclusive")
	}
	if *shardMode {
		if err := runShard(shardConfig{
			addr:         *addr,
			id:           *shardID,
			dir:          *shardDir,
			kgPath:       *kgPath,
			debugAddr:    *debugAddr,
			drainTimeout: *drainTimeout,
			drainGrace:   *drainGrace,
			logger:       logger,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *routerMode {
		if err := runRouter(routerConfig{
			addr:          *addr,
			snapshot:      *snapshot,
			kgPath:        *kgPath,
			shardAddrs:    *shardAddrs,
			selfURL:       *selfURL,
			debugAddr:     *debugAddr,
			hedge:         *hedge,
			probeInterval: *probeInterval,
			queryTimeout:  *queryTimeout,
			drainTimeout:  *drainTimeout,
			drainGrace:    *drainGrace,
			logger:        logger,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	engineOpts = []newslink.Option{
		newslink.WithParallelEmbed(*embedWorkers),
		newslink.WithEmbedCache(*embedCache),
	}
	if *walDir != "" {
		engineOpts = append(engineOpts, newslink.WithWAL(*walDir))
	}
	if *ingestQueue > 0 {
		engineOpts = append(engineOpts, newslink.WithIngestQueue(*ingestQueue))
	}
	engine, err := buildEngine(*kgPath, *corpusPath, *beta, *snapshot)
	if err != nil {
		log.Fatal(err)
	}
	engine.SetBONTimeout(*bonTimeout)

	d, err := newDaemon(engine, daemonConfig{
		addr:          *addr,
		debugAddr:     *debugAddr,
		queryTimeout:  *queryTimeout,
		maxInFlight:   *maxInFlight,
		admissionWait: *admissionWait,
		drainTimeout:  *drainTimeout,
		drainGrace:    *drainGrace,
		logger:        logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d documents on %s (API under /v1/)", engine.NumDocs(), d.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.run(ctx); err != nil {
		log.Fatal(err)
	}
}

// daemonConfig collects everything newDaemon needs beyond the engine.
type daemonConfig struct {
	addr          string
	debugAddr     string // empty = no debug listener
	queryTimeout  time.Duration
	maxInFlight   int
	admissionWait time.Duration
	drainTimeout  time.Duration
	drainGrace    time.Duration
	logger        *slog.Logger
}

// daemon owns a process's listeners and drives the serve → wait → drain
// lifecycle, one implementation for all three modes (single process,
// -shard, -router); what a mode does beyond serving HTTP lives in the
// hooks. Listeners are bound before run — synchronously, so a port clash
// is a startup error instead of a log line from a goroutine racing main.
type daemon struct {
	main         *http.Server
	mainLn       net.Listener
	debug        *http.Server // nil when the debug listener is disabled
	debugLn      net.Listener
	drainTimeout time.Duration
	drainGrace   time.Duration
	logger       *slog.Logger

	// Mode hooks, each optional. serving runs beside the servers once
	// they are up (the router's initial assignment, which needs its own
	// blob endpoint live); draining is the drain's first step, before the
	// grace period (flip readiness); drained its last, once HTTP is quiet
	// (close the engine).
	serving  func(ctx context.Context)
	draining func()
	drained  func() error
}

// newDaemon builds the single-process daemon: the public API over engine.
func newDaemon(engine *newslink.Engine, cfg daemonConfig) (*daemon, error) {
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	api := server.New(engine,
		server.WithQueryTimeout(cfg.queryTimeout),
		server.WithMaxInFlight(cfg.maxInFlight),
		server.WithAdmissionWait(cfg.admissionWait),
		server.WithLogger(cfg.logger))
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, fmt.Errorf("binding %s: %w", cfg.addr, err)
	}
	d := &daemon{
		main:         hardenServer(&http.Server{Handler: api.Handler()}),
		mainLn:       ln,
		drainTimeout: cfg.drainTimeout,
		drainGrace:   cfg.drainGrace,
		logger:       cfg.logger,
		draining:     func() { api.SetReady(false) },
		// With HTTP quiet, drain the engine itself — apply everything the
		// ingest queue accepted and fsync/close the write-ahead log, so a
		// clean shutdown leaves nothing for the next start to replay-repair.
		drained: func() error {
			if err := engine.Close(); err != nil {
				return fmt.Errorf("closing engine: %w", err)
			}
			return nil
		},
	}
	if err := d.listenDebug(cfg.debugAddr, engine.Metrics()); err != nil {
		return nil, err
	}
	return d, nil
}

// listenDebug binds the private -debug-addr listener — synchronously, like
// the main one, which it closes again if the bind fails — and the server to
// run on it; a no-op when addr is empty. The debug
// server is its own http.Server (so shutdown reaches it too) with no
// WriteTimeout: pprof profile captures legitimately stream for longer than
// any sane response deadline.
func (d *daemon) listenDebug(addr string, metrics *obs.Registry) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.mainLn.Close()
		return fmt.Errorf("binding debug address %s: %w", addr, err)
	}
	d.debug, d.debugLn = hardenServer(&http.Server{Handler: debugHandler(metrics)}), ln
	d.debug.WriteTimeout = 0
	return nil
}

// hardenServer applies the shared protections against slow or abusive
// clients to a listener-facing http.Server.
func hardenServer(s *http.Server) *http.Server {
	s.ReadHeaderTimeout = 5 * time.Second
	s.ReadTimeout = 15 * time.Second
	s.WriteTimeout = 30 * time.Second
	s.IdleTimeout = 60 * time.Second
	s.MaxHeaderBytes = 1 << 20
	return s
}

// Addr returns the main listener's bound address (useful with ":0").
func (d *daemon) Addr() string { return d.mainLn.Addr().String() }

// DebugAddr returns the debug listener's bound address, or "".
func (d *daemon) DebugAddr() string {
	if d.debugLn == nil {
		return ""
	}
	return d.debugLn.Addr().String()
}

// run serves until ctx is cancelled (SIGINT/SIGTERM in main) or a
// listener fails, then drains: the draining hook runs (readiness flips to
// 503), the optional grace period lets load balancers take the instance
// out of rotation, connections that have sent no request are closed, and
// both servers shut down gracefully — admitted requests complete, bounded
// by the drain timeout — before the drained hook. Returns nil on a clean
// drain.
func (d *daemon) run(ctx context.Context) error {
	errc := make(chan error, 2)
	var gates []*connGate
	serve := func(name string, s *http.Server, ln net.Listener) {
		gates = append(gates, gateConns(s))
		go func() {
			if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("%s server: %w", name, err)
			}
		}()
	}
	serve("api", d.main, d.mainLn)
	if d.debug != nil {
		d.logger.Info("debug server listening", "addr", d.DebugAddr())
		serve("debug", d.debug, d.debugLn)
	}
	if d.serving != nil {
		go d.serving(ctx)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	d.logger.Info("drain started", "grace", d.drainGrace, "timeout", d.drainTimeout)
	if d.draining != nil {
		d.draining()
	}
	if d.drainGrace > 0 {
		time.Sleep(d.drainGrace)
	}
	for _, g := range gates {
		g.drain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	err := d.main.Shutdown(sctx)
	if d.debug != nil {
		err = errors.Join(err, d.debug.Shutdown(sctx))
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if d.drained != nil {
		if err := d.drained(); err != nil {
			return err
		}
	}
	d.logger.Info("drain complete")
	return nil
}

// connGate tracks the connections of a server that have sent no request
// yet. http.Server.Shutdown counts such a connection as active for up to
// five seconds, so a client that dialed and stayed silent would hold the
// drain for that long; the drain closes them instead.
type connGate struct {
	mu       sync.Mutex
	silent   map[net.Conn]struct{}
	draining bool
}

// gateConns installs a connGate as s's ConnState hook.
func gateConns(s *http.Server) *connGate {
	g := &connGate{silent: make(map[net.Conn]struct{})}
	s.ConnState = g.state
	return g
}

func (g *connGate) state(c net.Conn, st http.ConnState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(g.silent, c)
	case g.draining:
		c.Close()
	default:
		g.silent[c] = struct{}{}
	}
}

// drain closes every connection that has sent no request, and every one
// accepted from now on.
func (g *connGate) drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	for c := range g.silent {
		c.Close()
	}
	clear(g.silent)
}

func parseLogLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", s)
	}
	return l, nil
}

// debugHandler is the private -debug-addr surface: the standard pprof
// endpoints (registered explicitly rather than via the package's
// DefaultServeMux side effect) plus the metric registry in both formats.
func debugHandler(metrics *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = metrics.WriteJSON(w)
	})
	mux.HandleFunc("GET /v1/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WritePrometheus(w)
	})
	return mux
}

// engineOpts carries the flag-derived construction options into
// buildEngineMode. Snapshot loads use the persisted Config as the base and
// layer these on top — runtime choices like the WAL directory and the
// ingest queue are per-deployment, not part of the snapshot.
var engineOpts []newslink.Option

func buildEngine(kgPath, corpusPath string, beta float64, snapshot string) (*newslink.Engine, error) {
	var g *kg.Graph
	var arts []corpus.Article
	if kgPath == "" && corpusPath == "" {
		g, arts = corpus.Sample()
	} else {
		if kgPath == "" || corpusPath == "" {
			return nil, fmt.Errorf("-kg and -corpus must be given together")
		}
		f, err := os.Open(kgPath)
		if err != nil {
			return nil, err
		}
		g, err = kg.Read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	if snapshot != "" {
		if err := newslink.RecoverSnapshot(snapshot); err != nil {
			return nil, err
		}
		if _, err := os.Stat(snapshot); err == nil {
			log.Printf("loading snapshot from %s", snapshot)
			return newslink.Load(snapshot, g, engineOpts...)
		}
	}
	if corpusPath != "" {
		cf, err := os.Open(corpusPath)
		if err != nil {
			return nil, err
		}
		arts, err = corpus.ReadJSONL(cf)
		cf.Close()
		if err != nil {
			return nil, err
		}
	}
	cfg := newslink.DefaultConfig()
	cfg.Beta = beta
	engine := newslink.New(g, append([]newslink.Option{cfg}, engineOpts...)...)
	docs := make([]newslink.Document, len(arts))
	for i, a := range arts {
		docs[i] = newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	t0 := time.Now()
	if err := engine.AddAll(docs, 0); err != nil {
		return nil, err
	}
	if err := engine.Build(); err != nil {
		return nil, err
	}
	log.Printf("indexed %d documents in %v", len(docs), time.Since(t0).Round(time.Millisecond))
	if snapshot != "" {
		if err := engine.Save(snapshot); err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
		log.Printf("saved snapshot to %s", snapshot)
	}
	return engine, nil
}
