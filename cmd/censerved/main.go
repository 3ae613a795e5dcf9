// Command censerved runs the measurement-orchestration service: an HTTP
// JSON API (submit / status / result / healthz / metrics) over a
// priority job queue with per-tenant admission control, scheduler
// workers dispatching onto clone-isolated simulated networks, and a
// sharded crash-safe result store.
//
// Usage:
//
//	censerved -listen 127.0.0.1:8377 -store /var/lib/censerved
//
// Submit a job, poll it, fetch the result:
//
//	curl -s -X POST localhost:8377/v1/jobs \
//	    -d '{"kind":"centrace","domain":"www.blocked.example","seed":7}'
//	curl -s localhost:8377/v1/jobs/j-00000001
//	curl -s localhost:8377/v1/results/j-00000001
//
// Multi-node operation (-role): a coordinator owns the public API and
// places every job on R worker nodes by consistent hashing; workers
// pull leases, execute locally, and store the result payloads:
//
//	censerved -role worker -node-id w1 -listen 127.0.0.1:8471 \
//	    -store w1-store -peers http://127.0.0.1:8377
//	censerved -role coordinator -listen 127.0.0.1:8377 -store coord-store \
//	    -replication 2 -peers w1=http://127.0.0.1:8471,w2=http://127.0.0.1:8472
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions get 503,
// in-flight jobs finish, queued jobs stay persisted for the next start,
// and the store is compacted and closed before exit 0. A draining
// coordinator additionally runs a final anti-entropy sweep; a draining
// worker stops pulling and finishes its leased jobs first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cendev/internal/cluster"
	"cendev/internal/obs"
	"cendev/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8377", "host:port to serve the API on")
	storeDir := flag.String("store", "censerved-store", "result-store directory")
	workers := flag.Int("workers", 2, "concurrent scheduler workers")
	queueCap := flag.Int("queue", 64, "job-queue capacity (beyond it submissions get 429)")
	burst := flag.Int("admit-burst", 8, "per-tenant admission token-bucket burst")
	rate := flag.Float64("admit-rate", 1, "per-tenant admission refill rate (tokens/second)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job watchdog timeout (hung jobs are abandoned and retried)")
	retryBudget := flag.Int("retry-budget", 2, "retries per transiently failing job before dead-lettering (negative: none)")
	degradeAfter := flag.Int("degrade-after", 3, "consecutive store write failures before degraded read-only mode (negative: never)")
	role := flag.String("role", "standalone", "process role: standalone, coordinator, or worker")
	nodeID := flag.String("node-id", "", "this node's cluster name (worker role; must match the coordinator's peer table)")
	peers := flag.String("peers", "",
		"coordinator role: comma-separated name=url worker peers; worker role: the coordinator's base URL")
	replication := flag.Int("replication", 2, "replicas per job across worker nodes (coordinator role)")
	quiet := flag.Bool("quiet", false, "suppress per-job log lines")
	exportStore := flag.Bool("export-store", false,
		"dump the result store as JSON lines on stdout and exit (the debug view of the binary segments)")
	flag.Parse()

	if *exportStore {
		st, err := serve.OpenStore(*storeDir, serve.DefaultShards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, w := range st.Warnings() {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		if err := st.ExportJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			st.Close()
			os.Exit(1)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	// The daemon always carries a registry: /metrics is part of the API.
	reg := obs.NewRegistry()

	sopts := serve.Options{
		StoreDir:      *storeDir,
		Workers:       *workers,
		QueueCapacity: *queueCap,
		AdmitBurst:    *burst,
		AdmitRate:     *rate,
		JobTimeout:    *jobTimeout,
		RetryBudget:   *retryBudget,
		DegradeAfter:  *degradeAfter,
		Obs:           reg,
		Logf:          logf,
	}

	var handler http.Handler
	var drain func() error
	var desc string

	switch *role {
	case "standalone":
		srv, err := serve.New(sopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		handler, drain = srv.Handler(), srv.Drain
		desc = fmt.Sprintf("standalone (store %s, %d workers, queue %d)", *storeDir, *workers, *queueCap)

	case "coordinator":
		peerMap, err := parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv, _, h, err := cluster.NewCoordinatorNode(sopts, cluster.CoordinatorOptions{
			Peers:       peerMap,
			Replication: *replication,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		handler, drain = h, srv.Drain
		desc = fmt.Sprintf("coordinator (store %s, %d peers, replication %d)", *storeDir, len(peerMap), *replication)

	case "worker":
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "censerved: -role worker requires -node-id")
			os.Exit(1)
		}
		if *peers == "" || strings.Contains(*peers, "=") || strings.Contains(*peers, ",") {
			fmt.Fprintln(os.Stderr, "censerved: -role worker requires -peers to be the coordinator's base URL")
			os.Exit(1)
		}
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			NodeID:         *nodeID,
			CoordinatorURL: strings.TrimRight(*peers, "/"),
			StoreDir:       *storeDir,
			Obs:            reg,
			Logf:           logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/", w.Handler())
		mux.Handle("GET /metrics", obs.Handler(reg))
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintln(rw, "ok")
		})
		w.Start()
		handler, drain = mux, w.Drain
		desc = fmt.Sprintf("worker %s (store %s, coordinator %s)", *nodeID, *storeDir, *peers)

	default:
		fmt.Fprintf(os.Stderr, "censerved: unknown -role %q (valid: standalone, coordinator, worker)\n", *role)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("censerved listening on %s, %s", ln.Addr(), desc)

	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining", sig)
		// Drain before closing the listener so in-flight status polls keep
		// answering (submissions already get 503 the moment drain starts).
		if err := drain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			httpSrv.Close()
			os.Exit(1)
		}
		httpSrv.Close()
		log.Printf("drain complete; exiting")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// parsePeers turns "w1=http://host:port,w2=..." into the coordinator's
// peer table.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, errors.New("censerved: -role coordinator requires -peers name=url[,name=url...]")
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("censerved: malformed -peers entry %q (want name=url)", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("censerved: duplicate peer name %q in -peers", name)
		}
		peers[name] = strings.TrimRight(url, "/")
	}
	return peers, nil
}
