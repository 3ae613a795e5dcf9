package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cendev/internal/cluster"
	"cendev/internal/obs"
	"cendev/internal/serve"
	"cendev/internal/vfs"
)

// Deployment settings, as cmd/censerved deploys the service: its default
// scheduler worker count, an obs registry per node, logging off, and
// admission and queue limits far above the offered load, so that a 429 is
// a failure, not a throttle.
const (
	serveWorkers  = 2
	queueCapacity = 1 << 16
	admitBurst    = 1 << 30
	admitRate     = 1 << 30
	clusterNodes  = 3
	replication   = 2
	healthTimeout = 30 * time.Second
)

// deployment is one running service, every node behind its own loopback
// listener: a standalone server, or a coordinator with its workers.
type deployment struct {
	dir     string
	url     string   // the public API
	health  []string // /healthz URLs that must answer 200
	regs    []*obs.Registry
	drains  []func() error // in shutdown order
	servers []*http.Server
	serving sync.WaitGroup
}

// deploy starts a deployment with its stores under dir and waits until
// every node answers /healthz. A non-nil rec traces it.
func deploy(dir string, clustered bool, rec *recorder) (*deployment, error) {
	d := &deployment{dir: dir}
	start := d.startStandalone
	if clustered {
		start = d.startCluster
	}
	if err := start(rec); err != nil {
		d.close()
		return nil, err
	}
	if err := d.waitHealthy(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) serveOptions(storeDir string, rec *recorder) serve.Options {
	reg := obs.NewRegistry()
	d.regs = append(d.regs, reg)
	opts := serve.Options{
		StoreDir:      storeDir,
		Workers:       serveWorkers,
		QueueCapacity: queueCapacity,
		AdmitBurst:    admitBurst,
		AdmitRate:     admitRate,
		Obs:           reg,
	}
	if rec != nil {
		opts.FS = rec.fs(vfs.OS())
	}
	return opts
}

func (d *deployment) startStandalone(rec *recorder) error {
	opts := d.serveOptions(filepath.Join(d.dir, "standalone"), rec)
	if rec != nil {
		opts.RunHook = rec.hook(serve.NewScheduler(opts.Obs).Run)
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	d.drains = append(d.drains, srv.Drain)
	if d.url, err = d.listen(srv.Handler()); err != nil {
		return err
	}
	d.health = append(d.health, d.url+"/healthz")
	return nil
}

func (d *deployment) startCluster(rec *recorder) error {
	peers := make(map[string]string)
	var workers []*cluster.Worker
	for i := 1; i <= clusterNodes; i++ {
		name := fmt.Sprintf("w%d", i)
		reg := obs.NewRegistry()
		d.regs = append(d.regs, reg)
		wopts := cluster.WorkerOptions{NodeID: name, StoreDir: filepath.Join(d.dir, name), Obs: reg}
		if rec != nil {
			wopts.FS = rec.fs(vfs.OS())
			wopts.RunHook = rec.hook(serve.NewScheduler(reg).Run)
			wopts.Client = rec.client()
		}
		w, err := cluster.NewWorker(wopts)
		if err != nil {
			return err
		}
		workers = append(workers, w)
		d.drains = append(d.drains, w.Drain)
		mux := http.NewServeMux()
		mux.Handle("/", w.Handler())
		mux.Handle("GET /metrics", obs.Handler(reg))
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) { fmt.Fprintln(rw, "ok") })
		url, err := d.listen(mux)
		if err != nil {
			return err
		}
		peers[name] = url
		d.health = append(d.health, url+"/healthz")
	}
	copts := cluster.CoordinatorOptions{Peers: peers, Replication: replication}
	if rec != nil {
		copts.Client = rec.client()
	}
	srv, _, handler, err := cluster.NewCoordinatorNode(d.serveOptions(filepath.Join(d.dir, "coordinator"), rec), copts)
	if err != nil {
		return err
	}
	// The coordinator drains first: its drain ends the workers' pulls.
	d.drains = append([]func() error{srv.Drain}, d.drains...)
	if d.url, err = d.listen(handler); err != nil {
		return err
	}
	d.health = append(d.health, d.url+"/healthz")
	for _, w := range workers {
		w.SetCoordinatorURL(d.url)
		w.Start()
	}
	return nil
}

func (d *deployment) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.servers = append(d.servers, hs)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

func (d *deployment) waitHealthy() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(healthTimeout)
	for _, u := range d.health {
		for {
			resp, err := hc.Get(u)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %s", u, healthTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// counters sums each named counter across every node's registry.
func (d *deployment) counters(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, reg := range d.regs {
		for _, m := range reg.Snapshot().Metrics {
			for _, n := range names {
				if m.Name == n {
					out[n] += m.Value
				}
			}
		}
	}
	return out
}

// close drains every node in order, stops the listeners, and removes the
// stores.
func (d *deployment) close() error {
	var errs []error
	for _, drain := range d.drains {
		if err := drain(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, hs := range d.servers {
		hs.Close()
	}
	d.serving.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
