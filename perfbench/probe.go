package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host is shared. From one run to the next, and within a run, the CPU
// time the benchmark gets drifts by tens of percent, so a plain timing
// measures the neighbours as much as the service. A probe is a fixed amount
// of the benchmark's own work, run while the service is idle, that measures
// how fast the host is at that moment. Probes use only the standard
// library, so no change to the repository's code can speed them up or slow
// them down; a new Go release or kernel can.
//
// There are two, one for each kind of time the workloads spend:
//
//   - the compute probe hashes, formats numbers, sorts and updates maps,
//     as job execution does;
//   - the service probe sends JSON requests over loopback HTTP to a
//     handler that appends each to a file and fsyncs it under one mutex,
//     as the light mixes spend much of their time in HTTP, wake-ups and
//     the store.
const (
	computeRounds = 125
	computeBytes  = 16 << 10
	computeKeys   = 2048
	serviceCalls  = 60
)

// nominal is what each probe takes on the reference host, a 2-vCPU Xeon VM
// running Go 1.24 with ext4 stores.
var nominal = hostSpeed{
	compute: reading{wall: 40 * time.Millisecond, cpu: 78 * time.Millisecond},
	service: reading{wall: 22 * time.Millisecond, cpu: 27 * time.Millisecond},
}

// reading is one probe's timing: the mean of its goroutines' wall times,
// and the process CPU time it took.
type reading struct{ wall, cpu time.Duration }

// scales is how much slower than nominal the reading ran, in wall time and
// in CPU time: above 1 the host was slower. Wall-clock times are divided
// by the first and rates multiplied; CPU times are divided by the second.
func (r reading) scales(nominal reading) (wall, cpu float64) {
	return float64(r.wall) / float64(nominal.wall), float64(r.cpu) / float64(nominal.cpu)
}

// hostSpeed is one reading of each probe.
type hostSpeed struct{ compute, service reading }

// computeWork is one goroutine's share of the compute probe: hashing,
// number formatting, sorting and map updates over fixed inputs. It
// allocates nothing after its first round, so a garbage collection of the
// service's heap does not land in it.
func computeWork() int {
	buf := make([]byte, computeBytes)
	keys := make([]int, computeKeys)
	text := make([]byte, 0, 8*computeKeys)
	m := make(map[int]int, computeKeys)
	var sink int
	for r := 0; r < computeRounds; r++ {
		sum := sha256.Sum256(buf)
		buf[r%len(buf)] ^= sum[0]
		text = text[:0]
		for k := range keys {
			keys[k] = (k*2654435761 + int(sum[k%len(sum)])) % 100003
			text = strconv.AppendInt(text, int64(keys[k]), 10)
			text = append(text, ',')
		}
		sort.Ints(keys)
		clear(m)
		for _, k := range keys {
			m[k] += r
		}
		sink += len(text) + len(m) + keys[len(keys)/2]
	}
	return sink
}

// probeRecord is the service probe's request and answer.
type probeRecord struct {
	ID      string  `json:"id"`
	Seed    int64   `json:"seed"`
	State   string  `json:"state"`
	Payload []int64 `json:"payload"`
}

// prober runs the probes. It owns the service probe's server and file.
type prober struct {
	url    string
	srv    *http.Server
	served chan struct{}
	mu     sync.Mutex // serializes appends, as the store's mutex does
	log    *os.File
}

// newProber starts the service probe's server on loopback, appending to a
// file in dir. Call close when done.
func newProber(dir string) (*prober, error) {
	log, err := os.Create(filepath.Join(dir, "probe.log"))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Close()
		return nil, err
	}
	p := &prober{url: "http://" + ln.Addr().String() + "/", served: make(chan struct{}), log: log}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.handle)}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return p, nil
}

func (p *prober) handle(w http.ResponseWriter, r *http.Request) {
	var rec probeRecord
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	line, _ := json.Marshal(rec) // a struct of plain fields always encodes
	p.mu.Lock()
	_, err := p.log.Write(append(line, '\n'))
	if err == nil {
		err = p.log.Sync()
	}
	p.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec.State = "done"
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rec) // a failed answer fails the caller's decode
}

// calls sends n requests one after another over one keep-alive connection
// and checks every answer.
func (p *prober) calls(n int) error {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	rec := probeRecord{ID: "probe", State: "queued"}
	for i := 0; i < 16; i++ {
		rec.Payload = append(rec.Payload, int64(i*i))
	}
	for i := 0; i < n; i++ {
		rec.Seed = int64(i)
		body, _ := json.Marshal(rec) // a struct of plain fields always encodes
		resp, err := hc.Post(p.url, "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		var back probeRecord
		err = json.NewDecoder(resp.Body).Decode(&back)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || back.Seed != rec.Seed || back.State != "done" {
			return fmt.Errorf("service probe: status %d, answer %+v, %v", resp.StatusCode, back, err)
		}
	}
	return nil
}

// timed runs fn on as many goroutines as there are load clients, all at
// once. The wall time is the mean of the goroutines' own times, not the
// time until the last one ends: with fewer free CPUs than goroutines they
// end unevenly, and the last one alone would overstate the slowdown.
func timed(fn func() error) (reading, error) {
	cpu0 := cpuTime()
	took := make([]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			errs[i] = fn()
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	r := reading{cpu: cpuTime() - cpu0}
	for _, t := range took {
		r.wall += t / time.Duration(len(took))
	}
	return r, errors.Join(errs...)
}

// probe runs the compute probe, then the service probe.
func (p *prober) probe() (hostSpeed, error) {
	var h hostSpeed
	var err error
	if h.compute, err = timed(func() error { computeWork(); return nil }); err != nil {
		return h, err
	}
	h.service, err = timed(func() error { return p.calls(serviceCalls) })
	return h, err
}

// close stops the server and closes the file.
func (p *prober) close() error {
	err := p.srv.Close()
	<-p.served
	return errors.Join(err, p.log.Close())
}
