package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"greendimm/internal/obs"
	"greendimm/internal/server"
)

// daemon is one in-process greendimmd: a server.Server behind its HTTP
// API on a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	dir  string
	done chan struct{} // closed when the serve loop has returned
}

// openDaemon opens a server (replaying cfg.StoreDir, if any) and serves
// its API on a fresh loopback port.
func openDaemon(cfg server.Config, tr *tracer) (*daemon, error) {
	sp := tr.start("server.Open", 0)
	srv, err := server.Open(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownServer(srv)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		dir: cfg.StoreDir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

// close stops the listener, waits for the serve loop, then drains the
// worker pool.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gdbench: http shutdown:", err)
	}
	<-d.done
	shutdownServer(d.srv)
}

func shutdownServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gdbench: server shutdown:", err)
	}
}

// newHTTPClient keeps one idle connection per closed-loop client.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns + 2}}
}

// scrape reads a daemon's /metrics: Prometheus text, one series per
// line, keyed by the series name with its labels.
func scrape(hc *http.Client, url string, tr *tracer) (map[string]float64, error) {
	sp := tr.start("GET /metrics", 0)
	defer tr.end(sp)
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// jobTrace fetches one job's lifecycle trace from the daemon's API.
func jobTrace(hc *http.Client, url, id string, tr *tracer, parent int) (obs.TraceView, error) {
	sp := tr.start("GET /v1/jobs/{id}/trace", parent)
	defer tr.end(sp)
	var v obs.TraceView
	resp, err := hc.Get(url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET trace: %s", resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// spanMS returns the durations (ms) of a trace's spans named name.
func spanMS(v obs.TraceView, name string) []float64 {
	var out []float64
	for _, s := range v.Spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// fingerprint is a result's bytes without its wall-clock (and, when
// asked, its simulated-seconds) accounting: the part the determinism
// contract fixes.
func fingerprint(r *server.Result, dropSim bool) string {
	if r == nil {
		return ""
	}
	c := *r
	c.WallSeconds = 0
	if dropSim {
		c.SimSeconds = 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
