// Command lyworker is one shard of the distributed solver fabric: a
// long-lived process that accepts serialized obligations over HTTP
// (POST /v1/solve), decides them with a local solver backend, and reports
// liveness (/healthz) and cumulative counters (/v1/status). Coordinators
// (plan, lightyear, lyserve, lybench with -solver remote:...) shard work
// across a fleet of these by consistent-hashing on check keys.
//
// Usage:
//
//	lyworker -listen :9101 [-solver portfolio:256] [-max-concurrent 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lightyear/internal/fabric"
	"lightyear/internal/logging"
	"lightyear/internal/solver"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("lyworker", flag.ExitOnError)
	listen := fs.String("listen", ":9101", "address to serve on (host:port)")
	solverFlag := fs.String("solver", "native", "local backend deciding received obligations: backend[:budget]")
	name := fs.String("name", "", "worker self-label in responses (default: listen address)")
	maxConc := fs.Int("max-concurrent", 0, "max simultaneous solves; excess requests get 503 (default GOMAXPROCS)")
	grace := fs.Duration("shutdown-grace", 5*time.Second, "drain window on SIGTERM/SIGINT")
	var logCfg logging.Config
	logCfg.RegisterFlags(fs, "json")
	fs.Parse(os.Args[1:])

	logger, err := logCfg.Build(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	log := logging.Component(logger, "lyworker")

	spec, err := solver.ParseSpec(*solverFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if spec.Backend == solver.RemoteName {
		fmt.Fprintln(os.Stderr, "lyworker: -solver remote would chain workers; pick a local backend")
		return 2
	}
	backend, err := solver.New(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	label := *name
	if label == "" {
		label = *listen
	}
	srv := fabric.NewServer(fabric.ServerOptions{
		Backend:       backend,
		Name:          label,
		MaxConcurrent: *maxConc,
		Logger:        log,
	})

	httpSrv := &http.Server{Addr: *listen, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	log.Info("worker up", "listen", *listen, "backend", backend.Name(), "name", label)
	select {
	case err := <-errCh:
		log.Error("serve failed", "err", err)
		return 1
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Warn("drain incomplete", "err", err)
		}
	}
	return 0
}
