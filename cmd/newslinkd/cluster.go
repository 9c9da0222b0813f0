// Cluster modes of newslinkd: -shard runs the process as a shard worker
// holding the postings of a slice of a snapshot, -router as the router that
// serves the public API over the whole snapshot and scatters its postings
// traversals across the workers. See DESIGN.md §14 and the README's
// Operations section for the full topology.
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"newslink/internal/cluster"
	"newslink/internal/corpus"
	"newslink/internal/kg"
)

// loadGraph reads the knowledge graph the cluster roles share; without
// -kg the built-in sample graph is used (matching the single-process
// default).
func loadGraph(kgPath string) (*kg.Graph, error) {
	if kgPath == "" {
		g, _ := corpus.Sample()
		return g, nil
	}
	f, err := os.Open(kgPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kg.Read(f)
}

// shardConfig carries the shard-mode flags.
type shardConfig struct {
	addr         string
	id           string // empty = the bound listen address
	dir          string // empty = a fresh temp directory
	kgPath       string
	debugAddr    string // empty = no debug listener
	drainTimeout time.Duration
	drainGrace   time.Duration
	logger       *slog.Logger
}

// runShard serves one shard worker until SIGINT/SIGTERM. The worker
// starts empty (readyz answers 503) and becomes ready when a router
// assigns it a segment slice.
func runShard(cfg shardConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return shardMain(ctx, cfg, nil)
}

// shardMain is runShard's context-driven body; bound, when non-nil,
// receives the daemon once its listeners are bound (tests use it to learn
// the ephemeral ports).
func shardMain(ctx context.Context, cfg shardConfig, bound chan<- *daemon) error {
	g, err := loadGraph(cfg.kgPath)
	if err != nil {
		return err
	}
	dir := cfg.dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "newslink-shard-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("binding %s: %w", cfg.addr, err)
	}
	id := cfg.id
	if id == "" {
		id = ln.Addr().String()
	}
	w := cluster.NewWorker(id, dir, g, cfg.logger)
	d := &daemon{
		main:         hardenServer(&http.Server{Handler: w.Handler()}),
		mainLn:       ln,
		drainTimeout: cfg.drainTimeout,
		drainGrace:   cfg.drainGrace,
		logger:       cfg.logger,
	}
	// Assignments stream segment artifacts from a peer before answering;
	// give them more room than an interactive query response.
	d.main.WriteTimeout = 2 * time.Minute
	if err := d.listenDebug(cfg.debugAddr, w.Metrics()); err != nil {
		return err
	}
	log.Printf("shard worker %s serving on %s (artifacts in %s)", id, ln.Addr(), dir)
	if bound != nil {
		bound <- d
	}
	return d.run(ctx)
}

// routerConfig carries the router-mode flags.
type routerConfig struct {
	addr          string
	snapshot      string
	kgPath        string
	shardAddrs    string
	selfURL       string
	debugAddr     string // empty = no debug listener
	hedge         bool
	probeInterval time.Duration
	queryTimeout  time.Duration
	drainTimeout  time.Duration
	drainGrace    time.Duration
	logger        *slog.Logger
}

// runRouter serves the cluster router until SIGINT/SIGTERM. The HTTP
// listener (which includes the blob endpoint workers fetch segments
// from) comes up before the initial shard assignment, so workers with
// empty directories can be seeded immediately.
func runRouter(cfg routerConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return routerMain(ctx, cfg, nil)
}

// routerMain is runRouter's context-driven body; bound, when non-nil,
// receives the daemon once its listeners are bound.
func routerMain(ctx context.Context, cfg routerConfig, bound chan<- *daemon) error {
	if cfg.snapshot == "" {
		return fmt.Errorf("-router requires -snapshot (the partitioned corpus)")
	}
	endpoints := parseShardAddrs(cfg.shardAddrs)
	if len(endpoints) == 0 {
		return fmt.Errorf("-router requires -shard-addrs")
	}
	g, err := loadGraph(cfg.kgPath)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("binding %s: %w", cfg.addr, err)
	}
	selfURL := cfg.selfURL
	if selfURL == "" {
		selfURL = "http://" + ln.Addr().String()
	}
	rt, err := cluster.NewRouter(cfg.snapshot, g, cluster.Config{
		Endpoints:      endpoints,
		SelfURL:        selfURL,
		Hedge:          cfg.hedge,
		ProbeInterval:  cfg.probeInterval,
		RequestTimeout: cfg.queryTimeout,
		Logger:         cfg.logger,
	})
	if err != nil {
		ln.Close()
		return err
	}
	defer rt.Close()
	d := &daemon{
		main:         hardenServer(&http.Server{Handler: rt.Handler()}),
		mainLn:       ln,
		drainTimeout: cfg.drainTimeout,
		drainGrace:   cfg.drainGrace,
		logger:       cfg.logger,
		// Assignment needs the blob endpoint to be live, so it runs once
		// the servers are up. A failed initial assignment is not fatal —
		// the probe loop keeps admitting workers as they appear.
		serving: func(ctx context.Context) {
			if err := rt.Start(ctx); err != nil {
				cfg.logger.Warn("initial cluster assignment incomplete", "err", err)
			}
		},
	}
	if err := d.listenDebug(cfg.debugAddr, rt.Metrics()); err != nil {
		return err
	}
	log.Printf("cluster router serving %d shards on %s (plan %s)",
		len(rt.Plan().Shards), ln.Addr(), rt.Plan().ID)
	if bound != nil {
		bound <- d
	}
	return d.run(ctx)
}

// parseShardAddrs splits the -shard-addrs grammar: groups by comma, one
// slot each; replicas within a group by '|'.
func parseShardAddrs(s string) [][]string {
	var out [][]string
	for _, group := range strings.Split(s, ",") {
		var eps []string
		for _, ep := range strings.Split(group, "|") {
			if ep = strings.TrimSpace(ep); ep != "" {
				eps = append(eps, strings.TrimRight(ep, "/"))
			}
		}
		if len(eps) > 0 {
			out = append(out, eps)
		}
	}
	return out
}
